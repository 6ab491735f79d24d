"""Cavity Green tensor: representations, oracles, limits, derivatives."""

import math

import numpy as np
import pytest
from scipy import special

import cavdip.green as green
from cavdip.errors import (ConvergenceError, DerivativeMismatchError,
                           DomainError, ThresholdError)
from cavdip.green import (CartesianGreen, CavityGeometry,
                          check_threshold, d_dk_k2_re_free_space,
                          d_dk_k2_re_green, free_space_green,
                          free_space_green_imag, green_imaginary_freq,
                          green_modesum, green_reflection_series,
                          greens_q_integral_oracle, kramers_kronig_re,
                          threshold_distance, to_cartesian, to_spherical)
from cavdip.quadrature import QuadSpec


# ---------------------------------------------------------------------------
# geometry, thresholds, basis change
# ---------------------------------------------------------------------------

def test_geometry_validation():
    with pytest.raises(DomainError):
        CavityGeometry(r=0.0, d=1.0)
    with pytest.raises(DomainError):
        CavityGeometry(r=1.0, d=-2.0)


def test_threshold_guard():
    d = 2.0
    for n in (1, 2, 5):
        k = n * math.pi / d
        with pytest.raises(ThresholdError):
            check_threshold(k * (1 + 1e-9), d)
        with pytest.raises(ThresholdError):
            green_modesum(CavityGeometry(r=1.0, d=d), k)
    # distance function
    assert abs(threshold_distance(1.0, 2.0) - (math.pi / 2 - 1.0)) < 1e-15
    # well clear of thresholds: no error
    check_threshold(1.0, 2.0)


def test_to_spherical_trivials_and_roundtrip():
    s = to_spherical(CartesianGreen(1.0, 1.0, 0.5))
    assert s.g_pm == 1.0 and s.g_pp == 0.0 and s.g_00 == 0.5
    s = to_spherical(CartesianGreen(1.0, -1.0, 0.0))
    assert s.g_pm == 0.0 and s.g_pp == 1.0
    # dyadic values: the linear bijection round-trips without rounding
    g = CartesianGreen(0.25 + 0.5j, -0.75 + 0.125j, 0.7)
    rt = to_cartesian(to_spherical(g))
    assert rt.g_par == g.g_par and rt.g_perp == g.g_perp
    # G(+-) + G(++) = G_par exactly
    s = to_spherical(g)
    assert s.g_pm + s.g_pp == g.g_par
    # generic values round-trip to an ulp
    g2 = CartesianGreen(0.3 + 0.1j, -0.2 + 0.4j, 0.7)
    rt2 = to_cartesian(to_spherical(g2))
    assert abs(rt2.g_par - g2.g_par) < 1e-15
    assert abs(rt2.g_perp - g2.g_perp) < 1e-15


# ---------------------------------------------------------------------------
# free space
# ---------------------------------------------------------------------------

def test_free_space_against_scalar_green_derivatives():
    """Components must equal -(grad grad / k^2 + 1) of e^{ikr}/(4 pi r)."""
    r, k, h = 1.0, 1.0, 1e-5

    def g_scalar(x, y):
        rr = math.sqrt(x * x + y * y)
        return np.exp(1j * k * rr) / (4 * math.pi * rr)

    d2x = (g_scalar(r + h, 0) - 2 * g_scalar(r, 0) + g_scalar(r - h, 0)) / h**2
    d2y = (g_scalar(r, h) - 2 * g_scalar(r, 0) + g_scalar(r, -h)) / h**2
    fs = free_space_green(r, k)
    assert abs(-(d2x / k**2 + g_scalar(r, 0)) - fs.g_par) < 1e-6
    assert abs(-(d2y / k**2 + g_scalar(r, 0)) - fs.g_perp) < 1e-6


def test_free_space_component_identity_and_decay():
    fs = free_space_green(2.0, 1.0)
    assert fs.g_perp == fs.g_00
    # radiative decay: perp/00 fall off as 1/r, par as 1/r^2
    r1, r2 = 1e3, 2e3
    a = free_space_green(r1, 1.0)
    b = free_space_green(r2, 1.0)
    assert abs(abs(b.g_perp) / abs(a.g_perp) - r1 / r2) < 1e-3
    assert abs(abs(b.g_par) / abs(a.g_par) - (r1 / r2) ** 2) < 1e-3


def test_free_space_imag_is_continuation():
    r, u = 0.7, 1.3
    fs = free_space_green_imag(r, u)
    # continue e^{ikr}(...) with k = iu by hand
    pref = math.exp(-u * r) / (4 * math.pi * u * u)
    assert abs(fs.g_par - pref * (2 / r**3 + 2 * u / r**2)) < 1e-15
    assert abs(fs.g_00 + pref * (1 / r**3 + u / r**2 + u * u / r)) < 1e-15


# ---------------------------------------------------------------------------
# mode sums
# ---------------------------------------------------------------------------

def test_subthreshold_im_parts():
    rng = np.random.default_rng(3)
    for _ in range(20):
        kr = rng.uniform(0.1, 3.0)
        kd = rng.uniform(0.3, math.pi - 0.05)
        im = green_modesum(CavityGeometry(r=kr, d=kd), 1.0).as_array().imag
        assert im[0] == 0.0 and im[1] == 0.0
        assert abs(im[2] + special.j0(kr) / (4 * kd)) < 1e-15


def test_modesum_regression_values():
    # frozen after cross-validation against the reflection series and the
    # Kramers-Kronig transform (see the equivalence tests below)
    g = green_modesum(CavityGeometry(r=1.0, d=2.0), 1.0)
    assert abs(g.g_par - (-0.23240273928028574 + 0j)) < 1e-12
    assert abs(g.g_00 - (0.0679583069987637 - 0.09564971081974581j)) < 1e-12


def test_representation_equivalence_spot():
    for kr, kd in ((1.0, 5.0), (2.0, 20.0)):
        geom = CavityGeometry(r=kr, d=kd)
        ms = green_modesum(geom, 1.0).as_array()
        rs = green_reflection_series(geom, 1.0).green.as_array()
        assert np.max(np.abs(rs - ms) / np.abs(ms)) < 1e-6


def test_reflection_series_sign_adjudication():
    """The printed all-alternating reading fails against the mode sums;
    the derived reading (no alternation for the axial component) wins."""
    geom = CavityGeometry(r=1.0, d=5.0)
    ms = green_modesum(geom, 1.0).as_array()
    ok = green_reflection_series(geom, 1.0,
                                 sign_convention="derived").green.as_array()
    bad = green_reflection_series(geom, 1.0,
                                  sign_convention="printed").green.as_array()
    assert np.max(np.abs(ok - ms) / np.abs(ms)) < 1e-6
    assert abs(bad[2] - ms[2]) / abs(ms[2]) > 0.1


def test_image_expansion_identities():
    """The half-angle series behind the reflection expansion, for
    Im(x) > 0 where the geometric sums converge:

        (1 - cos x)/sin x = tan(x/2) = i [1 + 2 sum_m (-1)^m e^{imx}]
        (1 + cos x)/sin x = cot(x/2) = -i [1 + 2 sum_m e^{imx}]

    The in-plane kernel alternates; the axial one does not, which is the
    content of the sign adjudication."""
    rng = np.random.default_rng(9)
    for _ in range(10):
        x = rng.uniform(0.5, 6.0) + 1j * rng.uniform(0.2, 1.5)
        ms = np.arange(1, 2001)
        geo = np.exp(1j * ms * x)
        tan_series = 1j * (1 + 2 * np.sum((-1.0) ** ms * geo))
        cot_series = -1j * (1 + 2 * np.sum(geo))
        assert abs(np.tan(x / 2) - tan_series) < 1e-10
        assert abs(1 / np.tan(x / 2) - cot_series) < 1e-10
        assert abs((1 - np.cos(x)) / np.sin(x) - np.tan(x / 2)) < 1e-12


def test_reflection_m0_is_free_space():
    geom = CavityGeometry(r=1.3, d=4.0)
    res = green_reflection_series(geom, 1.0, m_max=0)
    fs = free_space_green(1.3, 1.0)
    assert res.green == fs
    assert res.m_used == 0
    assert res.truncation_estimate > 0


def test_reflection_inplane_im_vanishes_below_threshold():
    """kd < pi: partial sums of the in-plane Im parts sink towards zero
    (destructive interference reproduces the empty mode sum)."""
    geom = CavityGeometry(r=1.0, d=2.0)
    k = 1.0
    fs = free_space_green(1.0, 1.0).as_array()
    residues = []
    for m_cap in (10, 40, 160):
        total = fs.copy()
        for m in range(1, m_cap + 1):
            t = green._reflection_order_term(geom, k, m, QuadSpec())
            total = total + np.array([(-1.0) ** m, (-1.0) ** m, 1.0]) * t
        residues.append(abs(total[0].imag) + abs(total[1].imag))
    assert residues[2] < residues[0]
    # and the accelerated value is much tighter than any plain partial sum
    acc = green_reflection_series(geom, k).green
    assert abs(acc.g_par.imag) < 1e-7
    assert abs(acc.g_perp.imag) < 1e-7


def test_reflection_convergence_error():
    with pytest.raises(ConvergenceError):
        green_reflection_series(CavityGeometry(r=1.0, d=2.0), 1.0, m_max=3)


def test_evanescent_tail_convergence_error():
    from cavdip.quadrature import SeriesSpec
    with pytest.raises(ConvergenceError):
        green_modesum(CavityGeometry(r=1e-3, d=1.0), 1.0,
                      SeriesSpec(n_max=50))


def test_mode_sums_do_not_depend_on_the_block_size(monkeypatch):
    """Cutting the sums into blocks along the entries and along m leaves
    them unchanged, for real, zero and imaginary k^2 (open modes at the
    largest k^2) in one array, with and without d/d(k^2)."""
    r, d = 0.02, 1.0                        # about 700 terms per entry
    k2 = np.array([30.0, -4.0, 0.0, 2000.0, -0.01, 1.0])
    whole = green._mode_sums(r, d, k2, deriv=True)
    monkeypatch.setattr(green, "_SUM_BLOCK", 64)
    cut = green._mode_sums(r, d, k2, deriv=True)
    for a, b in zip(whole, cut):
        assert np.max(np.abs(a - b) / np.abs(a)) <= 1e-12


# ---------------------------------------------------------------------------
# imaginary frequency
# ---------------------------------------------------------------------------

def test_imagfreq_matches_defining_integral_oracle():
    for ur, ud in ((0.5, 2.0), (2.0, 2.0), (0.5, 10.0), (2.0, 10.0)):
        geom = CavityGeometry(r=ur, d=ud)
        gi = green_imaginary_freq(geom, 1.0).as_array()
        orc = to_spherical(greens_q_integral_oracle(geom, 1.0)).as_array()
        assert np.max(np.abs(gi - orc) / np.abs(gi)) < 1e-7


def _free_spherical(r, u):
    return to_spherical(free_space_green_imag(r, u)).as_array()


def test_imagfreq_matches_reflection_series_continuation():
    """The image sum (the reflection series continued to k = i u) plus
    free space equals the mode sums at (0.5, 2), far above the r/d where
    it is used."""
    r, d = 0.5, 2.0
    u = np.geomspace(1e-3, 30.0, 12)
    k2 = -u * u
    images = green._image_sums(r, d, k2) / k2 + _free_spherical(r, u)
    modes = green._mode_sums(r, d, k2) / k2
    assert np.max(np.abs(images - modes) / np.abs(modes)) < 1e-6


def test_imagfreq_exponential_suppression():
    gi = green_imaginary_freq(CavityGeometry(r=30.0, d=2.0), 1.0).as_array()
    assert np.max(np.abs(gi)) < math.exp(-25)


def test_imagfreq_large_separation_is_free_space():
    geom = CavityGeometry(r=1.0, d=100.0)
    gi = green_imaginary_freq(geom, 1.0).as_array()
    fs = to_spherical(free_space_green_imag(1.0, 1.0)).as_array()
    assert np.max(np.abs(gi - fs)) < 1e-12


def test_imagfreq_monotone_decay_along_rays():
    us = np.linspace(3.2, 8.0, 10)
    vals = np.array([np.abs(green_imaginary_freq(
        CavityGeometry(r=1.0, d=2.0), float(u)).as_array()) for u in us])
    assert np.all(np.diff(vals, axis=0) < 0)


def test_imagfreq_domain():
    with pytest.raises(DomainError):
        green_imaginary_freq(CavityGeometry(1.0, 1.0), 0.0)
    with pytest.raises(DomainError):
        green_imaginary_freq(CavityGeometry(1.0, 1.0), np.array([1.0, -1.0]))


def test_imagfreq_closed_sums_exact_for_d_much_less_than_r():
    """At d << r only the n = 0 axial term survives: the in-plane
    components are ~e^{-pi r/d}, where the zeta-integral form returned
    ~1e-11 of cancellation noise."""
    r, d, u = 0.2, 0.01, 1.0
    g = green_imaginary_freq(CavityGeometry(r=r, d=d), u)
    assert abs(g.g_pm) < 1e-20 and abs(g.g_pp) < 1e-20
    want = -special.k0(u * r) / (2 * math.pi * d)
    assert abs(g.g_00 / want - 1) < 1e-13


@pytest.mark.parametrize("r, d", [(0.2, 2.0), (0.2, 0.2 / 5e-4)])
def test_imagfreq_array_call_matches_scalar_calls(r, d):
    """One call over a node array equals per-node calls, on both sides
    of the route crossover (the array call may sum a few more
    negligible terms, so equality is to rounding)."""
    geom = CavityGeometry(r=r, d=d)
    us = np.geomspace(1e-3, 60.0, 25)
    arr = green_imaginary_freq(geom, us).as_array()
    assert arr.shape == (3, us.size)
    for i, u in enumerate(us):
        one = green_imaginary_freq(geom, float(u)).as_array()
        assert np.max(np.abs(arr[:, i] - one)) <= 1e-14 * np.max(np.abs(one))


@pytest.mark.parametrize("u", [1e-4, 1e-2, 1.0, 30.0, 100.0])
def test_imagfreq_routes_agree_at_crossover(u, monkeypatch):
    """At the r/d where the closed sums take over, the image sums give
    the same tensor, so the switch leaves no step."""
    geom = CavityGeometry(r=0.2, d=0.2 / green.IMAGFREQ_SUM_MIN_R_OVER_D)
    sums = green_imaginary_freq(geom, u).as_array()
    monkeypatch.setattr(green, "IMAGFREQ_SUM_MIN_R_OVER_D", math.inf)
    images = green_imaginary_freq(geom, u).as_array()
    assert np.max(np.abs(sums - images) / np.abs(sums)) <= 1e-12


def test_image_sums_approach_closed_r0_sum():
    """The explicit images move C off its r = 0 value C0 by O((r/d)^2):
    (C - C0)/C0 falls 100x for each 10x cut in r/d, at the static k = 0
    as at imaginary frequency."""
    d, u = 1.0, np.array([0.0, 0.5, 3.0])
    c0 = green._image_sums(1e-30, d, -u * u)[[0, 2]]
    devs = [np.abs(green._image_sums(rho * d, d, -u * u)[[0, 2]] / c0 - 1)
            for rho in (1e-2, 1e-3, 1e-4, 1e-5, 1e-6)]
    for coarse, fine in zip(devs, devs[1:]):
        assert np.all((90 < coarse / fine) & (coarse / fine < 110))


@pytest.mark.parametrize("ud", [40.0, 200.0])
def test_image_sums_deep_in_the_exponential_tail(ud):
    """At u d >> 1 every image term is ~e^{-m u d}: C against the image
    sum in 30-digit arithmetic (a Li2 taken as spence(1 -+ x) rounds
    1 -+ x to 1 there and loses the u Li2 terms)."""
    mp = pytest.importorskip("mpmath")
    r, d = 0.01, 1.0
    u = ud / d
    want = np.zeros(3)
    with mp.workdps(30):
        for m in range(1, 8):
            big_r = mp.sqrt(r * r + (m * d) ** 2)
            e = mp.exp(-u * big_r) / (4 * mp.pi * u * u)
            g_par = e * (2 / big_r**3 + 2 * u / big_r**2)
            g_perp = -e * (1 / big_r**3 + u / big_r**2 + u * u / big_r)
            turn = (g_par - g_perp) * r * r / big_r**2
            sign = (-1) ** m
            want += [float(sign * (2 * g_perp + turn)), float(sign * turn),
                     float(2 * (g_par - turn))]
    got = green._image_sums(r, d, np.array([-u * u]))[:, 0] / (-u * u)
    assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-13


# ---------------------------------------------------------------------------
# Kramers-Kronig
# ---------------------------------------------------------------------------

def test_pv_bessel_moments_match_closed_forms():
    """The KK building blocks against the known Hankel-transform values
    (which the production mode sums rely on through Y/K kernels)."""
    spec = QuadSpec(rel_tol=1e-8, abs_tol=1e-12)
    for sigma, c in ((0.8, 1.0), (1.7, 0.6)):
        a_val = green._pv_bessel_moment("A", sigma * sigma, c, spec)
        assert abs(a_val + math.pi / 2 * special.y0(sigma * c)) < 1e-6
    for kappa, c in ((0.9, 1.0), (2.0, 0.7)):
        a_val = green._pv_bessel_moment("A", -kappa * kappa, c, spec)
        assert abs(a_val - special.k0(kappa * c)) < 1e-7


def test_kramers_kronig_roundtrip_spot():
    geom = CavityGeometry(r=1.0, d=5.0)
    ms = green_modesum(geom, 1.0).as_array().real
    kk = kramers_kronig_re(geom, 1.0).as_array()
    assert np.max(np.abs(kk - ms) / np.abs(ms)) < 1e-4


def test_kramers_kronig_tightening_tolerance_does_not_hurt():
    geom = CavityGeometry(r=0.8, d=4.0)
    ms = green_modesum(geom, 1.0).as_array().real
    loose = kramers_kronig_re(geom, 1.0, QuadSpec(rel_tol=1e-6,
                                                  abs_tol=1e-9)).as_array()
    tight = kramers_kronig_re(geom, 1.0, QuadSpec(rel_tol=1e-8,
                                                  abs_tol=1e-11)).as_array()
    d_loose = np.max(np.abs(loose - ms) / np.abs(ms))
    d_tight = np.max(np.abs(tight - ms) / np.abs(ms))
    assert d_tight <= d_loose * 1.5 + 1e-12


def test_kramers_kronig_zero_imaginary_input(monkeypatch):
    """Vanishing Im parts transform to vanishing Re parts: the output is a
    linear functional of the per-mode inputs with no additive bias."""
    monkeypatch.setattr(green, "_kk_inplane_mode",
                        lambda geom, k, n, spec: (0.0, 0.0))
    monkeypatch.setattr(green, "_kk_axial_mode",
                        lambda geom, k, n, spec: 0.0)
    kk = kramers_kronig_re(CavityGeometry(r=1.0, d=5.0), 1.0).as_array()
    assert np.all(kk == 0.0)


# ---------------------------------------------------------------------------
# d/dk [k^2 Re G]
# ---------------------------------------------------------------------------

def test_free_space_derivative_formulas():
    r, k = 1.3, 1.0
    an = d_dk_k2_re_free_space(r, k).as_array()
    h = 1e-5

    def g(kk):
        return kk * kk * free_space_green(r, kk).as_array().real

    fd = (g(k + h) - g(k - h)) / (2 * h)
    assert np.max(np.abs(an - fd)) < 1e-8
    assert an[1] == an[2]  # perp and axial free-space forms coincide


def test_cavity_derivative_dual_path():
    res = d_dk_k2_re_green(CavityGeometry(r=2.0, d=20.0), 1.0)
    assert res.max_rel_mismatch < 1e-6


def test_derivative_mismatch_error_surface():
    with pytest.raises(DerivativeMismatchError):
        d_dk_k2_re_green(CavityGeometry(r=2.0, d=20.0), 1.0,
                         mismatch_tol=1e-18)


@pytest.mark.parametrize("kr, kd, comp, want", [
    (0.16, 16.0, "g_par", -0.4530370140),
    (0.16, 16.0, "g_perp", 0.05065916227),
    (1.64, 15.5, "g_par", -0.7497335858)])
def test_derivative_matches_high_precision_reference(kr, kd, comp, want):
    """Near a mode threshold: 25-digit mpmath central differences of the
    same mode sums, and the finite-difference cross-check within 1e-7."""
    res = d_dk_k2_re_green(CavityGeometry(r=kr, d=kd), 1.0)
    assert abs(getattr(res.analytic, comp) / want - 1) <= 3e-10
    assert res.max_rel_mismatch <= 1e-7


def test_derivative_threshold_guard():
    with pytest.raises(ThresholdError):
        d_dk_k2_re_green(CavityGeometry(r=1.0, d=math.pi), 1.0 + 1e-10)
