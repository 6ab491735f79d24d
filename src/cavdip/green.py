"""Green tensor of a perfectly reflecting planar cavity at the mid-plane.

Geometry: two points separated by r along an axis parallel to the plates,
both at height d/2.  The tensor is diagonal with three independent
components: parallel (along r), perpendicular (in-plane, normal to r) and
axial (00, normal to the plates).  Three representations are implemented
and cross-validated:

* mode sums -- one kernel (:func:`_mode_sums`) evaluates k^2 G as
  Bessel-K sums over the cavity modes for a 1-D array of real k^2, with
  a term count fixed in advance per entry; at real k (k^2 > 0) the open
  modes continue to Bessel-J/Y terms (:func:`green_modesum`), and the
  kernel also returns d/d(k^2) (:func:`d_dk_k2_re_green`).  Their cost
  grows like d/r,
* image sums (:func:`_image_sums`), their dual for k^2 = -u^2 <= 0, at a
  cost that does not depend on r/d.  :func:`_closed_sums` picks the route
  for every k^2 <= 0, imaginary frequency (:func:`green_imaginary_freq`)
  and the static k^2 = 0 of :mod:`cavdip.static` alike: the mode sums
  from r/d = IMAGFREQ_SUM_MIN_R_OVER_D up, free space plus the images
  below.  At imaginary frequency both routes are checked against a
  brute-force quadrature of the defining integrals
  (:func:`greens_q_integral_oracle`),
* a reflection (image) series in the number m of bounces off the plates,
  with oscillatory q-integrals per order (:func:`green_reflection_series`).

A numerical Kramers-Kronig transform of the imaginary parts provides an
independent oracle for the real parts (:func:`kramers_kronig_re`), and
d/dk[k^2 Re G] is cross-checked by finite differences
(:func:`d_dk_k2_re_green`).

Units: r, d, k (or u) are plain reals; only the products k*r and k*d are
meaningful.  All dimensional prefactors live in the potential modules.

Sign convention of the reflection series: the per-order sign alternates as
(-1)^m for the two in-plane components and is constant (+1) for the axial
component.  This resolves an index ambiguity in the printed series and is
adjudicated numerically against the mode-sum representation (see
``sign_convention`` and the test suite).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy import special

from .bessel import bessel_j, bessel_k, bessel_y
from .errors import (ConvergenceError, DerivativeMismatchError, DomainError,
                     ThresholdError)
from .quadrature import (QuadSpec, SeriesSpec, integrate_finite,
                         integrate_oscillatory_tail,
                         integrate_semi_infinite_damped, wynn_epsilon)

__all__ = [
    "CavityGeometry",
    "CartesianGreen",
    "SphericalGreen",
    "to_spherical",
    "to_cartesian",
    "threshold_distance",
    "check_threshold",
    "free_space_green",
    "free_space_green_imag",
    "green_modesum",
    "green_reflection_series",
    "green_imaginary_freq",
    "greens_q_integral_oracle",
    "kramers_kronig_re",
    "d_dk_k2_re_green",
    "d_dk_k2_re_free_space",
    "ReflectionSeriesResult",
    "DkGreenResult",
]

PI = math.pi

#: guard band around mode thresholds, as a fraction of pi/d
DEFAULT_GUARD_FRACTION = 1e-6

#: r/d from which _closed_sums, and so every k^2 <= 0, uses the mode sums;
#: below it, the image sums, which cost the same at any r/d.  Their error
#: grows like (r/d)^2, so accuracy sets the crossover.  Per component of G
#: the routes agree, for u d in [1e-6, 3e3], to <= 1.3e-13 at 0.02, 1e-12
#: at 0.03 and 1.3e-11 at 0.05; at k^2 = 0 to 5.6e-16 at 0.005, 4.2e-15
#: at 0.01 and 1.3e-13 (V00) at 0.02.  The images are the faster route
#: below the crossover (CPU time on a 2-CPU Intel Xeon, modes / images):
#: v_off at Kr = 0.2 takes 31 / 9 ms at 0.05 and 76 / 8 ms at 0.02; one
#: k^2 = 0 entry 130 / 100-120 us at 0.02, 190 / 105-160 us at 0.01,
#: 280-340 / 120-150 us at 0.005 and 1.2 ms / 115-145 us at 1e-3.
IMAGFREQ_SUM_MIN_R_OVER_D = 0.02
#: largest entry x term block of the mode sums (bounds their memory)
_SUM_BLOCK = 8192
#: the mode sums stop at a relative remainder of about e^{-_SUM_EXP}
_SUM_EXP = 40.0
#: images summed explicitly by _image_sums; the rest are taken at r = 0
_IMAGES = 16
#: sign per bounce of the explicit in-plane image components (the closed
#: r = 0 sum takes it as Li_s(-x)); the axial ones keep +1
_INPLANE_SIGN = -1.0
#: terms of the plain polylogarithm series, used for x = e^w <= e^{-1}
_LI_SERIES = 60
#: 1/m^s of that series, columns s = 2, 3
_LI_WEIGHTS = 1.0 / np.arange(1.0, _LI_SERIES + 1)[:, None] ** [2, 3]
#: c_k of Wood's Li_s(e^w) = sum_k c_k w^k - w^{s-1} ln(-w)/(s-1)!, k < 42,
#: columns s = 2, 3: zeta(s - k)/k!, except H_{s-1}/(s-1)! at k = s - 1
_WOOD = special.zeta([2.0, 3.0] - np.arange(42.0)[:, None]) \
    / special.factorial(np.arange(42))[:, None]
_WOOD[1, 0], _WOOD[2, 1] = 1.0, 0.75


@dataclass(frozen=True)
class CavityGeometry:
    """Interatomic distance r and plate separation d (atoms at mid-plane)."""

    r: float
    d: float

    def __post_init__(self):
        if not (self.r > 0):
            raise DomainError("CavityGeometry: r must be > 0")
        if not (self.d > 0):
            raise DomainError("CavityGeometry: d must be > 0")


@dataclass(frozen=True)
class CartesianGreen:
    """The three independent tensor components (off-diagonals vanish)."""

    g_par: complex
    g_perp: complex
    g_00: complex

    def as_array(self):
        return np.array([self.g_par, self.g_perp, self.g_00])


@dataclass(frozen=True)
class SphericalGreen:
    """Spherical-basis components: (+-), (++) and (00).

    By symmetry G(+-) = G(-+) and G(++) = G(--), so three values suffice.
    """

    g_pm: complex
    g_pp: complex
    g_00: complex

    def as_array(self):
        return np.array([self.g_pm, self.g_pp, self.g_00])


def to_spherical(g: CartesianGreen) -> SphericalGreen:
    """G(+-) = (G_par + G_perp)/2, G(++) = (G_par - G_perp)/2."""
    return SphericalGreen(g_pm=(g.g_par + g.g_perp) / 2,
                          g_pp=(g.g_par - g.g_perp) / 2,
                          g_00=g.g_00)


def to_cartesian(s: SphericalGreen) -> CartesianGreen:
    """Exact inverse of :func:`to_spherical`."""
    return CartesianGreen(g_par=s.g_pm + s.g_pp,
                          g_perp=s.g_pm - s.g_pp,
                          g_00=s.g_00)


def threshold_distance(k: float, d: float) -> float:
    """Distance from k to the nearest mode threshold n*pi/d (n >= 1)."""
    n = max(1, round(k * d / PI))
    return abs(k - n * PI / d)


def check_threshold(k: float, d: float, guard_band: float | None = None):
    """Raise ThresholdError when k sits inside the guard band."""
    band = DEFAULT_GUARD_FRACTION * PI / d if guard_band is None else guard_band
    dist = threshold_distance(k, d)
    if dist < band:
        raise ThresholdError(
            f"k*d/pi = {k * d / PI:.9g} is within guard band "
            f"({dist:.3e} < {band:.3e}) of a cavity mode threshold")
    return dist


def _require_positive(value, name):
    ok = np.all(value > 0) if isinstance(value, np.ndarray) else value > 0
    if not ok:
        raise DomainError(f"{name} must be > 0")


# ---------------------------------------------------------------------------
# free space
# ---------------------------------------------------------------------------

def _free_k2(r, u):
    """k^2 (G_par, G_perp) of free space at k = i*u, finite at u = 0 (real
    k is u = -i k):

        k^2 G_par  = -e^{-u r} (2/r^3 + 2u/r^2) / (4 pi)
        k^2 G_perp =  e^{-u r} (1/r^3 + u/r^2 + u^2/r) / (4 pi)
    """
    e = np.exp(-u * r) / (4 * PI)
    return (-e * (2 / r**3 + 2 * u / r**2),
            e * (1 / r**3 + u / r**2 + u * u / r))


def free_space_green(r: float, k: float) -> CartesianGreen:
    """Free-space tensor components at real wavenumber k (complex values),
    G_00 = G_perp."""
    _require_positive(r, "r")
    _require_positive(k, "k")
    g_par, g_tr = (g / (k * k) for g in _free_k2(r, -1j * k))
    return CartesianGreen(g_par, g_tr, g_tr)


def free_space_green_imag(r: float, u) -> CartesianGreen:
    """Free-space components continued to k = i*u (real values).

    ``u`` may be a scalar or an array; the components follow its shape.
    """
    _require_positive(r, "r")
    _require_positive(u, "u")
    g_par, g_tr = (g / (-u * u) for g in _free_k2(r, u))
    return CartesianGreen(g_par, g_tr, g_tr)


# ---------------------------------------------------------------------------
# the cavity mode sums: real k, imaginary k, d/dk and the static limit
# ---------------------------------------------------------------------------

def _term_count(r, d, k2):
    """Largest mode index M of the mode sums at each k^2 (1-D array).

    Above the open modes the terms fall like e^{-r tau_m}, so the sums
    stop once e^{-r(tau_M - tau_c)} times the geometric remainder
    1/(1 - e^{-pi r/d}) is below e^{-_SUM_EXP}, where tau_c belongs to
    the first closed mode m_c >= 1.
    """
    a = PI / d
    lead = (_SUM_EXP - math.log(-math.expm1(-PI * r / d))) / r
    mc2 = (a * np.floor(np.sqrt(np.maximum(k2, 0.0)) / a + 1)) ** 2
    tau_c = np.sqrt(np.maximum(mc2 - k2, 0.0))
    # smallest M with tau_M >= tau_c + lead, without cancellation
    return np.ceil(np.sqrt(mc2 + (2 * tau_c + lead) * lead) / a).astype(int)


def _continued_k(order, r, tau2):
    """K0(r tau) (order 0) or tau K1(r tau) (order 1) at tau^2 = tau2.

    Open modes (tau2 < 0, sigma^2 = -tau2) continue as
    K0 -> (pi/2)(-Y0 + i J0)(sigma r) and
    tau K1 -> (pi sigma/2)(-Y1 + i J1)(sigma r).  Entries with tau2 = 0
    are 0: that is the m = 0 mode of the static limit, whose weight
    tau^2 K0 vanishes (an exact mode threshold is guarded by callers).
    """
    closed = tau2 > 0
    if closed.all():
        tau = np.sqrt(tau2)
        val = bessel_k(order, r * tau)
        return tau * val if order else val
    opened = tau2 < 0
    out = np.zeros(tau2.shape, complex if opened.any() else float)
    tau = np.sqrt(tau2[closed])
    out[closed] = bessel_k(order, r * tau) * (tau if order else 1.0)
    sig = np.sqrt(-tau2[opened])
    out[opened] = (PI / 2) * (sig if order else 1.0) * (
        -bessel_y(order, r * sig) + 1j * bessel_j(order, r * sig))
    return out


def _block_sums(r, k2, mk2, deriv):
    """Unscaled sums of one block: k2 is a column, mk2 = (m pi/d)^2 a row
    of consecutive m starting at an even m (so odd m sit at 1::2)."""
    odd, even = slice(1, None, 2), slice(0, None, 2)
    tau2 = mk2 - k2
    k0 = _continued_k(0, r, tau2)
    tk1 = _continued_k(1, r, tau2[:, odd])
    k0o, k0e = k0[:, odd], k0[:, even]
    e00 = tau2[:, even] * k0e
    if mk2[0] == 0:
        e00[:, 0] *= 0.5                      # m = 0 has half weight
    w_pm = mk2[odd] + k2
    rows = [(w_pm * k0o).sum(1),
            (tau2[:, odd] * k0o + (2 / r) * tk1).sum(1),
            e00.sum(1)]
    if deriv:
        d00 = (r / 2) * _continued_k(1, r, tau2[:, even]) - k0e
        if mk2[0] == 0:
            d00[:, 0] *= 0.5
        rows += [(k0o + (r / 2) * w_pm * tk1 / tau2[:, odd]).sum(1),
                 (r / 2) * tk1.sum(1),
                 d00.sum(1)]
    return np.array(rows)


def _mode_sums(r, d, k2, deriv=False, n_max=None):
    """k^2 G in spherical components (pm, pp, 00), one column per k^2.

    ``k2`` is a 1-D array of real k^2: k^2 > 0 is a real frequency,
    k^2 = -u^2 the imaginary frequency k = i u and k^2 = 0 the static
    limit.  One index m >= 0 serves both mode families, with
    tau_m^2 = (m pi/d)^2 - k^2: odd m are the in-plane modes, even m the
    axial ones (m = 0 at half weight):

        k^2 G_pm = -sum_{odd m} ((m pi/d)^2 + k^2) K0(r tau_m) / (2 pi d)
        k^2 G_pp = -sum_{odd m} [tau_m^2 K0(r tau_m) + 2 tau_m K1(r tau_m)/r]
                   / (2 pi d)
        k^2 G_00 = sum'_{even m} tau_m^2 K0(r tau_m) / (pi d)

    The finitely many open modes (tau_m^2 < 0) continue through Bessel
    J and Y (:func:`_continued_k`), so the columns are complex when some
    k^2 > 0 and real otherwise.  With ``deriv`` the d/d(k^2) of the same
    sums is returned too, from dK0(r tau)/d(k^2) = (r/2) K1(r tau)/tau and
    d[tau K1(r tau)]/d(k^2) = (r/2) K0(r tau).

    The term count M is fixed per entry (:func:`_term_count`); entries
    are sorted by M and summed in blocks of at most _SUM_BLOCK entry x
    term elements, cut along the entries and, for a single long entry,
    along m.  ConvergenceError is raised when a family would need more
    than ``n_max`` terms.
    """
    a = PI / d
    m_need = _term_count(r, d, k2)
    if n_max is not None and (m_need.max(initial=0) + 1) // 2 > n_max:
        raise ConvergenceError(
            f"mode sums need {(m_need.max() + 1) // 2} terms per family, "
            f"more than n_max = {n_max}")
    order = np.argsort(m_need)
    m_need, k2s = m_need[order], k2[order]
    out = np.empty((6 if deriv else 3, k2.size),
                   complex if (k2 > 0).any() else float)
    start = 0
    while start < k2.size:
        window = m_need[start:start + _SUM_BLOCK // 2] + 1
        cost = np.arange(1, window.size + 1) * window     # increasing
        stop = start + max(1, int(np.searchsorted(cost, _SUM_BLOCK, "right")))
        m_top = m_need[stop - 1] + 1
        step = max(2, _SUM_BLOCK // (stop - start)) // 2 * 2
        kb = k2s[start:stop, None]
        acc = 0
        for m0 in range(0, m_top, step):
            mk = a * np.arange(m0, min(m0 + step, m_top))
            acc = acc + _block_sums(r, kb, mk * mk, deriv)
        out[:, order[start:stop]] = acc
        start = stop
    scale = np.array([-1.0, -1.0, 2.0] * (2 if deriv else 1)) / (2 * PI * d)
    out *= scale[:, None]
    return (out[:3], out[3:]) if deriv else out


def green_modesum(geom: CavityGeometry, k: float,
                  series_spec: SeriesSpec = SeriesSpec(),
                  guard_band: float | None = None) -> CartesianGreen:
    """Full complex tensor from the mode sums at real k.

    The open modes give Bessel-J (imaginary) and Y (real) terms, the
    closed ones exponentially convergent Bessel-K terms; both come from
    :func:`_mode_sums`.  The Y0 terms diverge logarithmically at the
    thresholds, which is the physical cavity resonance; evaluation inside
    the guard band raises ThresholdError instead of returning a huge
    value.  Only ``series_spec.n_max`` is read: it caps the term count.
    """
    _require_positive(k, "k")
    check_threshold(k, geom.d, guard_band)
    k2 = k * k
    sums = _mode_sums(geom.r, geom.d, np.array([k2]),
                      n_max=series_spec.n_max)[:, 0] / k2
    return to_cartesian(SphericalGreen(*sums.tolist()))


# ---------------------------------------------------------------------------
# reflection series (real k)
# ---------------------------------------------------------------------------

def _j1_over_x(x):
    """J1(x)/x, regular at the origin (-> 1/2)."""
    x = np.asarray(x, dtype=float)
    out = np.full_like(x, 0.5)
    nz = x != 0
    out[nz] = bessel_j(1, x[nz]) / x[nz]
    return out


def _propagating_kernels(q, kr):
    """Integrand triplet (par, perp, 00) of the e^{iqkmd} integrals."""
    w = kr * np.sqrt(np.clip(1.0 - q * q, 0.0, None))
    j1w = _j1_over_x(w)
    j2 = bessel_j(2, w)
    j0 = bessel_j(0, w)
    b_par = (1 + q * q) * j1w - q * q * j2
    b_perp = (1 + q * q) * j1w - j2
    b_00 = (1 - q * q) * j0
    return np.stack([b_par, b_perp, b_00], axis=-1)


def _evanescent_kernels(q, kr):
    """Integrand triplet of the e^{-qkmd} integrals."""
    w = kr * np.sqrt(1.0 + q * q)
    j1w = _j1_over_x(w)
    j2 = bessel_j(2, w)
    j0 = bessel_j(0, w)
    b_par = (1 - q * q) * j1w + q * q * j2
    b_perp = (1 - q * q) * j1w - j2
    b_00 = (1 + q * q) * j0
    return np.stack([b_par, b_perp, b_00], axis=-1)


def _reflection_order_term(geom, k, m, spec):
    """Unsigned m-th reflection term (par, perp, 00), complex triplet."""
    r, d = geom.r, geom.d
    lam = k * m * d
    kr = k * r

    # propagating piece: uniform oscillation e^{iq lam} on [0, 1]
    n_half = int(lam / PI) + 1
    pts = np.linspace(0.0, 1.0, max(n_half, 8) + 1)[1:-1]
    spec_p = replace(spec, max_subdivisions=max(spec.max_subdivisions,
                                                2 * (len(pts) + 1) + 64))

    def f_prop(q):
        return np.exp(1j * lam * q)[:, None] * _propagating_kernels(q, kr)

    prop, _ = integrate_finite(f_prop, 0.0, 1.0, spec_p, points=pts)

    def f_evan(q):
        return np.exp(-lam * q)[:, None] * _evanescent_kernels(q, kr)

    evan, _ = integrate_semi_infinite_damped(
        f_evan, 0.0, lam, spec, oscillation_wavelength=2 * PI / kr,
        power_growth=2)

    return -(1j * k / (2 * PI)) * prop - (k / (2 * PI)) * evan


@dataclass(frozen=True)
class ReflectionSeriesResult:
    green: CartesianGreen
    truncation_estimate: float
    m_used: int


def green_reflection_series(geom: CavityGeometry, k: float, m_max: int = 500,
                            spec: QuadSpec = QuadSpec(),
                            sign_convention: str = "derived",
                            ) -> ReflectionSeriesResult:
    """Reflection-series tensor: free space plus m = 1..m_max image terms.

    The m-sum converges only like 1/m with a quasi-alternating phase, so
    partial sums are extrapolated with Wynn epsilon once the plain tail
    stops shrinking fast enough.  ``sign_convention``:

    * ``"derived"`` -- (-1)^m alternation in-plane, none for the axial
      component (the reading validated against the mode sums),
    * ``"printed"`` -- (-1)^m for all three components (the literal
      transcription; kept for the numerical adjudication test).
    """
    _require_positive(k, "k")
    if m_max < 0:
        raise DomainError("m_max must be >= 0")
    if sign_convention not in ("derived", "printed"):
        raise DomainError(f"unknown sign convention {sign_convention!r}")

    fs = free_space_green(geom.r, k).as_array()
    if m_max == 0:
        est = float(np.max(np.abs(_reflection_order_term(geom, k, 1, spec))))
        return ReflectionSeriesResult(CartesianGreen(*fs), est, 0)

    partials = []
    running = fs.astype(complex).copy()
    small_streak = 0
    value = None
    trunc = math.inf
    m_used = m_max
    for m in range(1, m_max + 1):
        term = _reflection_order_term(geom, k, m, spec)
        if sign_convention == "derived":
            sign = np.array([(-1.0) ** m, (-1.0) ** m, 1.0])
        else:
            sign = np.array([(-1.0) ** m] * 3)
        term = sign * term
        running = running + term
        partials.append(running.copy())
        scale = float(np.max(np.abs(running)))
        last = float(np.max(np.abs(term)))
        # plain-tail exit: consecutive terms below 1e-10 of the value
        if last < max(1e-10 * scale, spec.abs_tol):
            small_streak += 1
            if small_streak >= 2:
                value = running
                trunc = last
                m_used = m
                break
        else:
            small_streak = 0
        # epsilon extrapolation of the slowly convergent tail
        if m >= 12 and m % 4 == 0:
            window = np.array(partials[-48:])
            ests, errs = [], []
            for c in range(3):
                e, de = wynn_epsilon(window[:, c])
                ests.append(e)
                errs.append(de)
            scale = float(np.max(np.abs(ests)))
            tol = max(10 * spec.abs_tol, 100 * spec.rel_tol * scale)
            if max(errs) <= tol:
                value = np.array(ests)
                trunc = float(max(errs))
                m_used = m
                break
    if value is None:
        raise ConvergenceError(
            f"reflection series not settled by m_max={m_max} "
            f"(last term {last:.3e} vs scale {scale:.3e})")
    return ReflectionSeriesResult(CartesianGreen(*value), trunc, m_used)


# ---------------------------------------------------------------------------
# imaginary frequency, k = i u
# ---------------------------------------------------------------------------

def _li23(w):
    """Li_2 and Li_3 of e^w as the rows of a (2, n) array, for a 1-D array
    of w <= 0: the plain series for w <= -1, above it D. C. Wood's
    expansion about w = 0 ("The computation of polylogarithms", Univ. of
    Kent report 15-92, 1992) as one product of the powers of w with the
    table _WOOD (a Horner loop would take 41 array steps); its log terms
    vanish at w = 0, where Li_s(1) = zeta(s)."""
    out = np.empty((2, w.size))
    far = w <= -1.0
    out[:, far] = (np.exp(np.outer(w[far], np.arange(1, _LI_SERIES + 1)))
                   @ _LI_WEIGHTS).T
    near = w[~far]
    out[:, ~far] = (np.vander(near, len(_WOOD), increasing=True) @ _WOOD).T \
        - [special.xlogy(near, -near), special.xlogy(near * near, -near) / 2]
    return out


def _image_sums(r, d, k2):
    """Cavity part k^2 C = k^2 (G - G_free) at k^2 = -u^2 <= 0 as (pm, pp,
    00) rows, one column per entry of the 1-D array k2: a sum over images,
    finite at u = 0.

    The images at heights +-m d (R = sqrt(r^2 + m^2 d^2)) are the free
    tensor turned onto their direction, xx = g_perp + (g_par - g_perp)
    r^2/R^2, yy = g_perp, zz = g_perp + (g_par - g_perp) (m d)^2/R^2, with
    the in-plane components signed _INPLANE_SIGN^m = (-1)^m, the axial +1.
    Images m <= _IMAGES enter less their value at r = 0, and all images
    at r = 0 in closed form, with x = e^{-u d}:

        k^2 C0_pm = [Li3(-x)/d^3 + u Li2(-x)/d^2 + u^2 Li1(-x)/d] / (2 pi)
        k^2 C0_pp = 0,  k^2 C0_00 = -[2 Li3(x)/d^3 + 2 u Li2(x)/d^2] / (2 pi)

    with Li_s(-x) = 2^{1-s} Li_s(x^2) - Li_s(x).  The images beyond
    _IMAGES, taken at r = 0, err by about (r/d)^2/_IMAGES^4 of C at small
    u d.
    """
    u = np.sqrt(-k2)
    md = d * np.arange(1, _IMAGES + 1)
    big_r = np.hypot(r, md)
    (par, perp), (par0, perp0) = (_free_k2(R, u[:, None]) for R in (big_r, md))
    turn = (par - perp) * (r / big_r) ** 2
    sign = _INPLANE_SIGN ** np.arange(1, _IMAGES + 1)
    explicit = np.array([(sign * (2 * (perp - perp0) + turn)).sum(1),
                         (sign * turn).sum(1), 2 * (par - par0 - turn).sum(1)])

    w = -u * d
    li2, li3 = _li23(np.concatenate([w, 2 * w]))
    n = u.size
    li2m, li3m = li2[n:] / 2 - li2[:n], li3[n:] / 4 - li3[:n]
    c0_pm = li3m / d**3 + u * li2m / d**2 - u * u * np.log1p(np.exp(w)) / d
    c0_00 = -2 * (li3[:n] / d**3 + u * li2[:n] / d**2)
    return explicit + np.array([c0_pm, np.zeros_like(u), c0_00]) / (2 * PI)


def _closed_sums(r, d, k2, n_max=None):
    """k^2 G in spherical components (pm, pp, 00) for a 1-D array of
    k^2 = -u^2 <= 0, and the modes or images used per entry.

    From r/d = IMAGFREQ_SUM_MIN_R_OVER_D up these are the mode sums
    (:func:`_mode_sums`, capped by ``n_max``) and their term count; below
    it free space plus :func:`_image_sums`, with _IMAGES per entry.
    """
    if r / d >= IMAGFREQ_SUM_MIN_R_OVER_D:
        return _mode_sums(r, d, k2, n_max=n_max), _term_count(r, d, k2)
    par, perp = _free_k2(r, np.sqrt(-k2))
    free = to_spherical(CartesianGreen(par, perp, perp)).as_array()
    return free + _image_sums(r, d, k2), np.full(k2.size, _IMAGES)


def green_imaginary_freq(geom: CavityGeometry, u) -> SphericalGreen:
    """Spherical components at imaginary frequency k = i*u (all real).

    ``u`` is a scalar or a 1-D array; an array gives array-valued
    components, one entry per u, from a single call.

    The tensor is k^2 G of :func:`_closed_sums` at k^2 = -u^2, divided by
    k^2.  Every mode is closed at imaginary frequency, so the mode sums are
    real Bessel-K0/K1 sums, whose spherical forms make d << r exact.
    """
    u_arr = np.asarray(u, dtype=float)
    if u_arr.ndim > 1:
        raise DomainError("u must be a scalar or a 1-D array")
    _require_positive(u_arr, "u")
    k2 = -np.atleast_1d(u_arr) ** 2
    vals = _closed_sums(geom.r, geom.d, k2)[0] / k2
    if u_arr.ndim == 0:
        return SphericalGreen(*(float(v[0]) for v in vals))
    return SphericalGreen(*vals)


def _q_integral_scattering(r, d, u, spec):
    """Cartesian (par, perp, 00) of the oracle's scattering integral: the
    defining q-integrals less their free-space (tanh/coth -> 1) limit."""

    def f(q):
        lam = np.sqrt(u * u + q * q)
        e = np.exp(-lam * d)
        t_minus = -2.0 * e / (1.0 + e)          # tanh(lam d/2) - 1
        t_plus = np.zeros_like(lam)             # coth(lam d/2) - 1
        ok = lam * d < 700
        t_plus[ok] = 2.0 / np.expm1(lam[ok] * d)
        j0 = bessel_j(0, q * r)
        j2 = bessel_j(2, q * r)
        c = q / (8 * PI * u * u * lam)
        g_par = -c * (q * q * (j0 - j2) + 2 * u * u * j0) * t_minus
        g_perp = -c * (q * q * (j0 + j2) + 2 * u * u * j0) * t_minus
        g_00 = 2 * c * q * q * j0 * t_plus
        return np.stack([g_par, g_perp, g_00], axis=-1)

    scat, _ = integrate_semi_infinite_damped(
        f, 0.0, d, spec, oscillation_wavelength=2 * PI / r, power_growth=3)
    return scat


def greens_q_integral_oracle(geom: CavityGeometry, u: float,
                             spec: QuadSpec = QuadSpec()) -> CartesianGreen:
    """Brute-force radial-q quadrature of the defining tensor integrals.

    Valid on the imaginary-frequency branch only, where the angular
    reduction leaves smooth Bessel-J kernels times
    tanh/coth(lambda d / 2)/lambda with lambda = sqrt(u^2 + q^2).  The
    free-space part (the tanh/coth -> 1 limit) is taken in closed form;
    the remainder decays like e^{-lambda d} and is integrated directly.
    Used exclusively as an oracle for :func:`green_imaginary_freq`.
    """
    _require_positive(u, "u")
    fs = free_space_green_imag(geom.r, u).as_array()
    return CartesianGreen(*(fs + _q_integral_scattering(geom.r, geom.d, u,
                                                        spec)))


# ---------------------------------------------------------------------------
# Kramers-Kronig transform of the mode-sum imaginary parts
# ---------------------------------------------------------------------------

def _pv_bessel_moment(kind: str, sigma2: float, c: float,
                      spec: QuadSpec) -> float:
    """PV integral over s of  s J0(cs)/(s^2-sigma2)  or  J1(cs)/(s^2-sigma2).

    These are the per-mode building blocks of the Kramers-Kronig
    transform after the change of variable k'^2 = s^2 + threshold^2.  For
    sigma2 > 0 the pole at s = sqrt(sigma2) is handled by symmetric
    excision with the regular part integrated explicitly; the oscillatory
    Bessel tail is summed over half periods with epsilon acceleration.
    No Bessel-Y/K identities are used: this is the oracle side.
    """
    if kind == "A":
        def num(s):
            return s * bessel_j(0, c * s)
    elif kind == "E":
        def num(s):
            return bessel_j(1, c * s)
    else:
        raise ValueError(kind)

    half = PI / c
    if sigma2 > 0:
        sigma = math.sqrt(sigma2)

        def f(s):
            return num(s) / (s * s - sigma2)

        delta = min(0.5 * sigma, 0.5 * half)
        # regular part of the PV window
        phi_sigma = num(np.array([sigma]))[0] / (2 * sigma)

        def h(s):
            phi = num(s) / (s + sigma)
            ds = s - sigma
            safe = np.abs(ds) > 1e-9 * sigma
            out = np.empty_like(s)
            out[safe] = (phi[safe] - phi_sigma) / ds[safe]
            if np.any(~safe):
                eps = 1e-6 * sigma
                d_phi = (num(np.array([sigma + eps]))[0] / (2 * sigma + eps)
                         - phi_sigma) / eps
                out[~safe] = d_phi
            return out

        total = 0.0
        if sigma - delta > 1e-12:
            osc = np.arange(half, sigma - delta, half)
            v, _ = integrate_finite(f, 0.0, sigma - delta, spec,
                                    points=osc)
            total += v
        v, _ = integrate_finite(h, sigma - delta, sigma + delta, spec)
        total += v
        s0 = sigma + delta + 8 * half
        osc = np.arange(sigma + delta + half, s0, half)
        v, _ = integrate_finite(f, sigma + delta, s0, spec, points=osc)
        total += v
        v, _ = integrate_oscillatory_tail(f, s0, half, spec)
        total += v
        return total

    kappa2 = -sigma2

    def f(s):
        return num(s) / (s * s + kappa2)

    s0 = half * 10
    osc = np.arange(half, s0, half)
    v1, _ = integrate_finite(f, 0.0, s0, spec, points=osc)
    v2, _ = integrate_oscillatory_tail(f, s0, half, spec)
    return v1 + v2


def _kk_inplane_mode(geom: CavityGeometry, k: float, n: int,
                     spec: QuadSpec):
    """Transform of the n-th in-plane Im mode: (par, perp) pieces of
    k^2 Re G.  Besides the numeric Bessel moments, each mode carries the
    elementary integrals int J1(cs) ds = 1/c and the Abel-regularized
    int s J0(cs) ds = 0."""
    r, d = geom.r, geom.d
    k2 = k * k
    sigma2 = k2 - (n * PI / d) ** 2
    a = _pv_bessel_moment("A", sigma2, r, spec)
    e = _pv_bessel_moment("E", sigma2, r, spec)
    par = -((n * PI / d) ** 2 * a + 1 / r**2 + sigma2 / r * e) / (PI * d)
    perp = -(k2 * a - 1 / r**2 - sigma2 / r * e) / (PI * d)
    return par, perp


def _kk_axial_mode(geom: CavityGeometry, k: float, n: int, spec: QuadSpec):
    """Transform of the n-th axial Im mode (n = 0 is the threshold-free
    -J0(kr)/(4d) term)."""
    r, d = geom.r, geom.d
    k2 = k * k
    if n == 0:
        return -(k2 / (2 * PI * d)) * _pv_bessel_moment("A", k2, r, spec)
    sigma2 = k2 - (2 * n * PI / d) ** 2
    return -(sigma2 / (PI * d)) * _pv_bessel_moment("A", sigma2, r, spec)


def kramers_kronig_re(geom: CavityGeometry, k: float,
                      spec: QuadSpec = QuadSpec(rel_tol=1e-7, abs_tol=1e-10),
                      guard_band: float | None = None,
                      mode_rel_tol: float = 1e-8,
                      max_modes: int = 400) -> CartesianGreen:
    """Real parts via the principal-value transform of the mode-sum
    imaginary parts:

        k^2 Re G(k) = (2/pi) PV int_0^inf dk' k'^3 Im G(k') / (k'^2 - k^2)

    Evaluated mode by mode in the variable s = sqrt(k'^2 - threshold^2),
    where every contribution reduces to the two Bessel moments of
    :func:`_pv_bessel_moment` evaluated by PV/oscillatory quadrature.  No
    Bessel-Y/K identities enter, so this is an independent oracle for
    the real parts of :func:`green_modesum`.
    """
    _require_positive(k, "k")
    check_threshold(k, geom.d, guard_band)
    d = geom.d
    k2 = k * k

    par2 = perp2 = 0.0
    n = 1
    small = 0
    count = 0
    while count < max_modes:
        dpar, dperp = _kk_inplane_mode(geom, k, n, spec)
        par2 += dpar
        perp2 += dperp
        scale = max(abs(par2), abs(perp2))
        if (n * PI / d) ** 2 > k2 and \
                max(abs(dpar), abs(dperp)) <= mode_rel_tol * scale + 1e-300:
            small += 1
            if small >= 3:
                break
        else:
            small = 0
        n += 2
        count += 1
    else:
        raise ConvergenceError("KK in-plane mode sum not converged")

    g00_2 = _kk_axial_mode(geom, k, 0, spec)
    n = 1
    small = 0
    count = 0
    while count < max_modes:
        dg = _kk_axial_mode(geom, k, n, spec)
        g00_2 += dg
        if (2 * n * PI / d) ** 2 > k2 and \
                abs(dg) <= mode_rel_tol * abs(g00_2) + 1e-300:
            small += 1
            if small >= 3:
                break
        else:
            small = 0
        n += 1
        count += 1
    else:
        raise ConvergenceError("KK axial mode sum not converged")

    return CartesianGreen(par2 / k2, perp2 / k2, g00_2 / k2)


# ---------------------------------------------------------------------------
# d/dk [k^2 Re G]
# ---------------------------------------------------------------------------

def d_dk_k2_re_free_space(r: float, k: float) -> CartesianGreen:
    """Analytic d/dk[k^2 Re G] of the free-space closed forms."""
    _require_positive(r, "r")
    _require_positive(k, "k")
    par = -k * math.cos(k * r) / (2 * PI * r)
    tr = -(k * math.cos(k * r) / r - k * k * math.sin(k * r)) / (4 * PI)
    return CartesianGreen(par, tr, tr)


@dataclass(frozen=True)
class DkGreenResult:
    analytic: CartesianGreen
    finite_difference: CartesianGreen
    max_rel_mismatch: float


def d_dk_k2_re_green(geom: CavityGeometry, k: float,
                     series_spec: SeriesSpec = SeriesSpec(),
                     guard_band: float | None = None,
                     check: bool = True,
                     mismatch_tol: float = 1e-6) -> DkGreenResult:
    """d/dk [k^2 Re G] computed two ways.

    (a) 2k times the d/d(k^2) sums of :func:`_mode_sums`; (b)
    Richardson-extrapolated central differences of k^2 Re G, with a step
    of at most 1/64 of the distance to the nearest mode threshold.  Path
    (a) is returned; (b) is the cross-check and DerivativeMismatchError
    is raised when they disagree beyond ``mismatch_tol`` (relative).
    """
    _require_positive(k, "k")
    dist = check_threshold(k, geom.d, guard_band)
    r, d, n_max = geom.r, geom.d, series_spec.n_max

    def cartesian_re(sums):
        return to_cartesian(SphericalGreen(*sums.real)).as_array()

    _, dsums = _mode_sums(r, d, np.array([k * k]), deriv=True, n_max=n_max)
    a_arr = 2 * k * cartesian_re(dsums[:, 0])
    analytic = CartesianGreen(*a_arr.tolist())

    # finite-difference cross-check with Richardson extrapolation
    h = min(1e-3 * k, dist / 64)
    if h <= 0:
        raise ThresholdError("no room for the finite-difference stencil")
    kk = k + np.array([h, -h, h / 2, -h / 2])
    g = cartesian_re(_mode_sums(r, d, kk * kk, n_max=n_max))
    fd = (4 * (g[:, 2] - g[:, 3]) / h - (g[:, 0] - g[:, 1]) / (2 * h)) / 3
    fd_green = CartesianGreen(*fd.tolist())

    scale = float(np.max(np.abs(a_arr)))
    denom = np.maximum(np.maximum(np.abs(a_arr), np.abs(fd)), 1e-9 * scale)
    mismatch = float(np.max(np.abs(a_arr - fd) / denom))
    if check and mismatch > mismatch_tol:
        raise DerivativeMismatchError(
            f"analytic vs finite-difference d/dk[k^2 Re G] disagree: "
            f"relative mismatch {mismatch:.3e} > {mismatch_tol:.1e}")
    return DkGreenResult(analytic, fd_green, mismatch)
