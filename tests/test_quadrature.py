"""Quadrature and series-summation contracts on analytic references."""

import math

import numpy as np
import pytest
from scipy import special

from cavdip.errors import ConvergenceError
from cavdip.green import CavityGeometry
from cavdip.quadrature import (QuadSpec, SeriesSpec, integrate_finite,
                               integrate_oscillatory_tail,
                               integrate_semi_infinite_damped, wynn_epsilon)
from cavdip.static import v_static_dimensionless

SPEC = QuadSpec()

# (f, a, b, exact, optional points hint) -- finite-interval library
FINITE_CASES = [
    (lambda x: np.ones_like(x), 0.0, 1.0, 1.0, None),
    (np.sin, 0.0, math.pi, 2.0, None),
    (lambda x: x * x, 0.0, 1.0, 1.0 / 3.0, None),
    (np.exp, 0.0, 1.0, math.e - 1.0, None),
    (lambda x: 1 / (1 + x * x), 0.0, 1.0, math.pi / 4, None),
    (np.log, 0.0, 1.0, -1.0, None),
    (lambda x: 1 / np.sqrt(x), 0.0, 1.0, 2.0, None),
    (lambda x: x**1.5, 0.0, 1.0, 0.4, None),
    (lambda x: np.cos(x) ** 2, 0.0, 2 * math.pi, math.pi, None),
    (lambda x: np.sin(50 * x), 0.0, 1.0, (1 - math.cos(50)) / 50,
     np.arange(0.02, 1.0, 0.05)),
    (lambda x: np.abs(x - 1.0), 0.0, 2.0, 1.0, [1.0]),
    # endpoint singularity in a well-conditioned form (1-x exact in float)
    (lambda x: 1 / np.sqrt((1 - x) * (1 + x)), 0.0, 1.0, math.pi / 2, None),
    (lambda x: np.sqrt(1 - x * x), 0.0, 1.0, math.pi / 4, None),
    (lambda x: np.cos(200 * x), 0.0, 1.0, math.sin(200) / 200,
     np.arange(0.005, 1.0, 0.01)),
]

# (f, damping_scale, exact, oscillation wavelength) -- semi-infinite library
SEMI_CASES = [
    (lambda x: np.exp(-x), 1.0, 1.0, None),
    (lambda x: x * np.exp(-x), 1.0, 1.0, None),
    (lambda x: x * x * np.exp(-2 * x), 2.0, 0.25, None),
    (lambda x: np.exp(-x) * np.cos(10 * x), 1.0, 1.0 / 101.0,
     2 * math.pi / 10),
    (lambda x: np.exp(-x) / (1 + x), 1.0,
     math.e * float(special.exp1(1.0)), None),
    (lambda x: np.exp(-x * x), 1.0, math.sqrt(math.pi) / 2, None),
]


def test_finite_library_and_error_bounds():
    for f, a, b, exact, pts in FINITE_CASES:
        val, est = integrate_finite(f, a, b, SPEC, points=pts)
        err = abs(val - exact)
        assert err <= max(SPEC.abs_tol, SPEC.rel_tol * abs(exact)) * 50 + 1e-14
        # reported estimate bounds the true error (small float slack)
        assert err <= est + 1e-13 * max(1.0, abs(exact))


def test_semi_infinite_library():
    for f, scale, exact, wl in SEMI_CASES:
        val, est = integrate_semi_infinite_damped(
            f, 0.0, scale, SPEC, oscillation_wavelength=wl)
        err = abs(val - exact)
        assert err <= 1e-9 * max(1.0, abs(exact))
        assert err <= est + 1e-12


def test_cancellation_prone_singularity_still_accurate():
    # written as 1/sqrt(1-x^2), the integrand loses digits to cancellation
    # near x = 1; the value stays accurate to ~1e-8 but certification at
    # 1e-9 needs the conditioned form 1/sqrt((1-x)(1+x))
    f = lambda x: 1 / np.sqrt(1 - x * x)
    val, _ = integrate_finite(f, 0.0, 1.0, SPEC)
    assert abs(val - math.pi / 2) < 1e-7


def test_halving_rel_tol_never_hurts():
    for f, a, b, exact, pts in FINITE_CASES:
        e1 = abs(integrate_finite(f, a, b, QuadSpec(rel_tol=1e-6),
                                  points=pts)[0] - exact)
        e2 = abs(integrate_finite(f, a, b, QuadSpec(rel_tol=5e-7),
                                  points=pts)[0] - exact)
        assert e2 <= e1 + 1e-13 * max(1.0, abs(exact))


def test_oscillatory_endpoint_case_vs_substitution_oracle():
    # int_0^1 J1(10 sqrt(1-q^2))/sqrt(1-q^2) dq; substituting q = sin(theta)
    # gives the smooth oracle int_0^{pi/2} J1(10 cos(theta)) d(theta)
    def f(q):
        s = np.sqrt(np.clip(1 - q * q, 1e-300, None))
        return special.j1(10 * s) / s

    val, _ = integrate_finite(f, 0.0, 1.0, QuadSpec(rel_tol=1e-11))
    oracle, _ = integrate_finite(lambda t: special.j1(10 * np.cos(t)),
                                 0.0, math.pi / 2, QuadSpec(rel_tol=1e-12))
    assert abs(val - oracle) < 1e-9


def test_semi_infinite_vs_dense_trapezoid_oracle():
    # x^4 e^{-2x} / (x^2+1)^2 against a brute-force fine grid
    def f(x):
        return x**4 * np.exp(-2 * x) / (x * x + 1) ** 2

    val, _ = integrate_semi_infinite_damped(f, 0.0, 2.0, SPEC)
    grid = np.linspace(0.0, 40.0, 2_000_001)
    oracle = np.trapezoid(f(grid), grid)
    assert abs(val - oracle) < 1e-8


def test_damped_bessel_structure_case():
    # (z^2-1) e^{-z} J0-free structure smoke case vs the same dense oracle
    def f(z):
        return (z * z - 1) * np.exp(-z) * special.j0(2 * np.sqrt(
            np.clip(z * z - 1, 0, None)))

    val, _ = integrate_semi_infinite_damped(f, 1.0, 1.0, SPEC,
                                            oscillation_wavelength=math.pi)
    grid = np.linspace(1.0, 45.0, 2_000_001)
    oracle = np.trapezoid(f(grid), grid)
    assert abs(val - oracle) < 1e-8


def test_vector_valued_integrand():
    def f(x):
        return np.stack([np.sin(x), np.cos(x), x], axis=-1)

    val, _ = integrate_finite(f, 0.0, math.pi, SPEC)
    assert np.allclose(val, [2.0, 0.0, math.pi**2 / 2], atol=1e-10)


def test_convergence_error_on_budget_exhaustion():
    with pytest.raises(ConvergenceError):
        integrate_finite(lambda x: np.sin(1e4 * x), 0.0, 1.0,
                         QuadSpec(rel_tol=1e-12, abs_tol=1e-16,
                                  max_subdivisions=8))


def test_series_bessel_vs_brute_force():
    """The mode-sum kernel's fixed term count on a long Bessel-K sum: the
    static V00 = 4 sum n^2 K0(2 pi rho n) at rho = 1/(2 pi), that is
    4 sum n^2 K0(n), against 10^4 terms summed directly."""
    rho = 1 / (2 * math.pi)
    val = v_static_dimensionless(CavityGeometry(r=rho, d=1.0)).v00
    n = np.arange(1, 10_001, dtype=float)
    brute = 4 * np.sum(n * n * special.k0(n))
    assert abs(val - brute) <= 1e-10 * brute


def test_spec_validation():
    with pytest.raises(ValueError):
        QuadSpec(rel_tol=0.0)
    with pytest.raises(ValueError):
        SeriesSpec(n_max=0)
    with pytest.raises(ValueError):
        integrate_finite(np.sin, 1.0, 1.0)
    with pytest.raises(ValueError):
        integrate_semi_infinite_damped(np.exp, 0.0, -1.0)


def test_wynn_epsilon_accelerates_slow_alternating_series():
    # partial sums of log(2) = sum (-1)^{n+1}/n, truncated at 25 terms
    terms = [(-1) ** (n + 1) / n for n in range(1, 26)]
    partials = np.cumsum(terms)
    est, err = wynn_epsilon(partials)
    assert abs(est - math.log(2)) < 1e-10
    assert abs(partials[-1] - math.log(2)) > 1e-2  # plain sum is far off


def test_wynn_epsilon_unimodular_phase():
    # sum e^{i m phi}/m = -ln(1 - e^{i phi})
    phi = 2.0
    terms = [np.exp(1j * phi * m) / m for m in range(1, 41)]
    partials = np.cumsum(terms)
    est, err = wynn_epsilon(partials)
    exact = -np.log(1 - np.exp(1j * phi))
    assert abs(est - exact) < 1e-8


def test_oscillatory_tail_bessel():
    # int_1^inf J0(5 s)/s^2 ds via half-period chunks, oracle on dense grid
    def f(s):
        return special.j0(5 * s) / (s * s)

    val, _ = integrate_oscillatory_tail(f, 1.0, math.pi / 5,
                                        QuadSpec(rel_tol=1e-9))
    grid = np.linspace(1.0, 2000.0, 4_000_001)
    oracle = np.trapezoid(f(grid), grid)
    assert abs(val - oracle) < 1e-6
