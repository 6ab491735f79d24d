"""Van der Waals potentials and two-atom phase shifts.

Four scenarios are covered: both atoms ground (off-resonant only), one
atom excited, two dissimilar excited atoms, and two identical excited
atoms (with the double-pole d/dk[k^2 Re G] term).  Off-resonant parts are
integrals over imaginary frequency; resonant parts are evaluated at the
real transition wavenumbers of the downward channels.

Dipole-tensor contractions use the spherical pairing of
:mod:`cavdip.atoms`:

    x . G . y = G_00 x0 y0 + G_pp (x+ y+ + x- y-) + G_pm (x+ y- + x- y+),

applied to the directional matrix elements exactly as they appear in the
channel sums; reversed elements are conjugate-swapped, which makes every
Re/Im product reduce to |contraction|^2 and keeps all energies real.

Sign conventions: for both ground-state atoms the off-resonant potential
is negative (attractive) in free space; resonant kernels inherit their
sign from the printed detuning denominators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .atoms import TwoAtomConfig, coupled_channels, resonant_channels
from .errors import DegenerateError, DomainError, ThresholdError
from .green import (CavityGeometry, SphericalGreen, d_dk_k2_re_green,
                    free_space_green_imag, green_imaginary_freq,
                    green_modesum, to_spherical)
from .quadrature import (QuadSpec, SeriesSpec, integrate_semi_infinite_damped)

__all__ = [
    "PotentialTensor",
    "ChannelContribution",
    "EnergyResult",
    "contract",
    "v_off_dimensionless",
    "v_off_free_dimensionless",
    "w_off_full",
    "w_off_factorized",
    "v_res_dimensionless",
    "w_res_one_excited",
    "w_res_two_excited_dissimilar",
    "w_res_two_excited_identical",
    "w_resonant",
]

PI = math.pi


@dataclass(frozen=True)
class PotentialTensor:
    """Dimensionless potential triplet in the spherical basis."""

    v00: float
    vpp: float
    vpm: float
    family: str  # off | resA | resB | static

    def as_array(self):
        return np.array([self.v00, self.vpp, self.vpm])


@dataclass
class ChannelContribution:
    i: int
    j: int
    tag: str
    k_eval: float
    w_a: float = 0.0
    w_b: float = 0.0
    phase: float = 0.0
    skipped: bool = False
    reason: str = ""


@dataclass
class EnergyResult:
    """Potentials of each atom and the wavefunction phase-shift rate.

    Energies are in joules; ``phase_shift_rate`` is phase_shift/hbar in
    rad/s.  ``breakdown`` lists the per-channel contributions (their sums
    reproduce the totals) including channels skipped at mode thresholds.
    """

    w_a: float
    w_b: float
    phase_shift: float
    phase_shift_rate: float
    family: str
    breakdown: list[ChannelContribution] = field(default_factory=list)

    @property
    def skipped_channels(self):
        return [c for c in self.breakdown if c.skipped]


def contract(x, green: SphericalGreen | np.ndarray, y):
    """Scalar contraction x . G . y in the spherical basis.

    ``green`` may be a SphericalGreen or a plain (pm, pp, 00) triplet.
    """
    g = green.as_array() if isinstance(green, SphericalGreen) else green
    g_pm, g_pp, g_00 = g
    return (g_00 * x[0] * y[0]
            + g_pp * (x[1] * y[1] + x[2] * y[2])
            + g_pm * (x[1] * y[2] + x[2] * y[1]))


def _integrate_scaled(f, damping_scale, spec, probes):
    """Semi-infinite integral with the tolerance floor set by probing.

    Potentials in SI units involve dipole^4 factors of order 1e-117; the
    integrand is normalized by its probed magnitude so that the absolute
    tolerance and tail cutoff act on a quantity of order one.
    """
    sample = np.abs(np.asarray(f(np.asarray(probes, dtype=float))))
    scale = float(sample.max())
    if scale == 0.0 or not math.isfinite(scale):
        zero = np.zeros(sample.shape[1]) if sample.ndim == 2 else 0.0
        return zero, 0.0
    val, err = integrate_semi_infinite_damped(
        lambda x: np.asarray(f(x)) / scale, 0.0, damping_scale, spec)
    return np.asarray(val) * scale, err * scale


# ---------------------------------------------------------------------------
# off-resonant family
# ---------------------------------------------------------------------------

def _off_integrand(green):
    """Batched q -> q^4 g(q)^2/(q^2+1)^2, columns (pm, pp, 00).

    ``green(q)`` returns the (pm, pp, 00) rows of the tensor at an array
    of q > 0 in one call.  The value at q = 0 is zero exactly (the q^4
    weight; the interior limit is finite and handled by the quadrature
    nodes).
    """

    def f(q):
        out = np.zeros((len(q), 3))
        nz = q != 0.0
        qn = q[nz]
        out[nz] = (qn**4 / (1 + qn * qn) ** 2)[:, None] * green(qn).T ** 2
        return out

    return f


def v_off_integrand(geom: CavityGeometry, K: float):
    """Batched integrand q -> q^4 G^2(r; iKq)/(q^2+1)^2, columns (pm,pp,00),
    with one Green evaluation per node array."""
    return _off_integrand(
        lambda q: green_imaginary_freq(geom, K * q).as_array())


def v_off_dimensionless(geom: CavityGeometry, K: float,
                        spec: QuadSpec = QuadSpec(rel_tol=1e-8),
                        ) -> PotentialTensor:
    """Universal off-resonant tensor potential (dimensionless).

    V_off^pq = int_0^inf dq q^4 G_pq(r; iKq)^2 / [K (q^2+1)]^2

    depends on geometry only; the integrand decays exponentially at
    u = Kq ~ 2/min(r, d).
    """
    if not K > 0:
        raise DomainError("K must be > 0")
    f = v_off_integrand(geom, K)
    damping = 2.0 * K * min(geom.r, geom.d)
    probes = [0.5, 1.0, 2.0, 4.0]
    val, _ = _integrate_scaled(f, damping, spec, probes)
    val = val / (K * K)
    return PotentialTensor(v00=val[2], vpp=val[1], vpm=val[0], family="off")


def v_off_free_dimensionless(kr: float,
                             spec: QuadSpec = QuadSpec(rel_tol=1e-8),
                             ) -> PotentialTensor:
    """Free-space limit (d -> inf) of :func:`v_off_dimensionless` at
    K r = kr, with K = 1."""
    f = _off_integrand(
        lambda q: to_spherical(free_space_green_imag(kr, q)).as_array())
    val, _ = integrate_semi_infinite_damped(f, 0.0, 2 * kr, spec)
    return PotentialTensor(v00=val[2], vpp=val[1], vpm=val[0],
                           family="off")


def w_off_full(config: TwoAtomConfig,
               spec: QuadSpec = QuadSpec(rel_tol=1e-8)) -> EnergyResult:
    """Off-resonant potential from the imaginary-frequency integral.

    W/2 = -2/(pi hbar eps0^2 c^3) sum_ij int_0^inf du
          u^4 w_ia w_jb / [(u^2+k_ia^2)(u^2+k_jb^2)] |d_ai . G(iu) . d_jb|^2

    and equals the phase-shift rate: w_a = w_b = phase_shift.
    """
    cn = config.constants
    geom = config.geometry
    channels = coupled_channels(config)
    if not channels:
        return EnergyResult(0.0, 0.0, 0.0, 0.0, "off", [])
    k_scales = [abs(w) / cn.c for _, _, w_ia, w_jb, _, _ in channels
                for w in (w_ia, w_jb)]

    def f(u):
        out = np.zeros((len(u), len(channels)))
        nz = u != 0.0
        un = u[nz]
        g = green_imaginary_freq(geom, un).as_array()
        for c_idx, (i, j, w_ia, w_jb, x, y) in enumerate(channels):
            k_ia = w_ia / cn.c
            k_jb = w_jb / cn.c
            pairing = np.abs(contract(x, g, y)) ** 2
            out[nz, c_idx] = (un**4 * w_ia * w_jb
                              / ((un * un + k_ia * k_ia)
                                 * (un * un + k_jb * k_jb))) * pairing
        return out

    damping = 2.0 * min(geom.r, geom.d)
    kmed = float(np.median(k_scales)) if k_scales else 1.0 / geom.r
    probes = sorted({0.5 * kmed, kmed, 2 * kmed, 0.5 / geom.r, 1.0 / geom.r})
    vals, _ = _integrate_scaled(f, damping, spec, probes)
    vals = np.atleast_1d(vals)
    pref = -2.0 / (PI * cn.hbar * cn.epsilon0**2 * cn.c**3)
    breakdown = []
    for c_idx, (i, j, _, _, _, _) in enumerate(channels):
        w = pref * float(vals[c_idx])
        breakdown.append(ChannelContribution(i, j, "off", 0.0, w, w, w))
    total = pref * float(np.sum(vals))
    return EnergyResult(total, total, total, total / cn.hbar, "off",
                        breakdown)


def w_off_factorized(config: TwoAtomConfig, K: float,
                     factors: dict[tuple[int, int], float] | None = None,
                     spec: QuadSpec = QuadSpec(rel_tol=1e-8)) -> EnergyResult:
    """Factorized off-resonant potential using the universal tensor.

    W/2 ~ -2 K^5/(pi hbar eps0^2 c) sum_ij C_ij [ |d0 d0|^2 V00
          + (+/- component pairs) Vpp/Vpm ],

    with C_ij of unit magnitude (overridable per channel) and sign
    sgn(w_ai * w_jb).  The component pairing matches the exact
    contraction of :func:`w_off_full` for pure transitions.
    """
    cn = config.constants
    channels = coupled_channels(config)
    v = v_off_dimensionless(config.geometry, K, spec)
    total = 0.0
    breakdown = []
    pref = -2.0 * K**5 / (PI * cn.hbar * cn.epsilon0**2 * cn.c)
    for i, j, omega_ia, omega_jb, x, y in channels:
        # sign of the product of the two signed transition frequencies,
        # matching the kernel of the exact integral (attractive for
        # both-ground pairs)
        c_ij = math.copysign(1.0, omega_ia * omega_jb)
        if factors and (i, j) in factors:
            c_ij = math.copysign(abs(factors[(i, j)]), c_ij)
        # y = <j|d|b>, so its + and - components pair as in x.G.y
        c00 = abs(x[0]) ** 2 * abs(y[0]) ** 2
        cpp = abs(x[1]) ** 2 * abs(y[1]) ** 2 + abs(x[2]) ** 2 * abs(y[2]) ** 2
        cpm = abs(x[1]) ** 2 * abs(y[2]) ** 2 + abs(x[2]) ** 2 * abs(y[1]) ** 2
        w = pref * c_ij * (c00 * v.v00 + cpp * v.vpp + cpm * v.vpm)
        total += w
        breakdown.append(ChannelContribution(i, j, "off-factorized",
                                             0.0, w, w, w))
    return EnergyResult(total, total, total, total / cn.hbar,
                        "off-factorized", breakdown)


# ---------------------------------------------------------------------------
# resonant family
# ---------------------------------------------------------------------------

def _spherical_parts(geom, k, series_spec, guard_band):
    g = to_spherical(green_modesum(geom, k, series_spec, guard_band))
    return g.as_array().real, g.as_array().imag


def v_res_dimensionless(geom: CavityGeometry, K: float,
                        series_spec: SeriesSpec = SeriesSpec(),
                        guard_band: float | None = None,
                        ) -> tuple[PotentialTensor, PotentialTensor]:
    """Adimensional resonant potentials of the excited (A) and ground (B)
    atom:  V_A = (Re^2 G - Im^2 G)/K^2,  V_B = (Re^2 G + Im^2 G)/K^2.

    The sign discrepancy of the Im^2 term is what makes the two atoms
    feel different resonant potentials.
    """
    if not K > 0:
        raise DomainError("K must be > 0")
    re, im = _spherical_parts(geom, K, series_spec, guard_band)
    va = (re * re - im * im) / (K * K)
    vb = (re * re + im * im) / (K * K)
    return (PotentialTensor(v00=va[2], vpp=va[1], vpm=va[0], family="resA"),
            PotentialTensor(v00=vb[2], vpp=vb[1], vpm=vb[0], family="resB"))


def _resonant_sum(config, formula, family, series_spec, guard_band,
                  derivative_check=True, derivative_path="analytic"):
    """Evaluate the channel table of ``formula`` (see
    :func:`cavdip.atoms.resonant_channels`) into an EnergyResult.

    A channel whose k sits inside a threshold guard band is recorded as
    skipped; if every channel is skipped, ThresholdError is raised.
    """
    cn = config.constants
    geom = config.geometry
    greens: dict[float, tuple] = {}
    breakdown = []
    for ch in resonant_channels(config, formula):
        k = ch.omega_k / cn.c
        if ch.omega_other is not None:
            denom = ch.omega_k**2 - ch.omega_other**2
            if denom == 0.0:
                raise DegenerateError(
                    f"vanishing detuning denominator in channel {ch.tag} "
                    f"(i={ch.i}, j={ch.j})")
        try:
            if k not in greens:
                greens[k] = _spherical_parts(geom, k, series_spec, guard_band)
            re, im = greens[k]
            if ch.omega_other is None:
                dk_res = d_dk_k2_re_green(geom, k, series_spec, guard_band,
                                          check=derivative_check)
                dk_cart = (dk_res.analytic if derivative_path == "analytic"
                           else dk_res.finite_difference)
                dk = to_spherical(dk_cart).as_array().real
        except ThresholdError as err:
            breakdown.append(ChannelContribution(
                ch.i, ch.j, ch.tag, k, skipped=True, reason=str(err)))
            continue
        if ch.omega_other is None:
            # double pole: -2 Re G d/dk[k^2 Re G] joins the ReRe term
            kern = k**2 / (cn.epsilon0**2 * cn.c * cn.hbar)
            f_r = contract(ch.x, re, ch.y).real
            f_i = contract(ch.x, im, ch.y).real
            f_d = contract(ch.x, dk, ch.y).real
            w = kern * (k * f_r * f_r - 2 * f_r * f_d)
            breakdown.append(ChannelContribution(
                ch.i, ch.j, ch.tag, k, w, w,
                kern * (k * f_r * f_r - k * f_i * f_i - 2 * f_r * f_d)))
            continue
        kern = ch.sign * (2 * ch.omega_other * k**4
                          / (cn.epsilon0**2 * cn.hbar * denom))
        r2 = abs(contract(ch.x, re, ch.y)) ** 2
        i2 = abs(contract(ch.x, im, ch.y)) ** 2
        breakdown.append(ChannelContribution(
            ch.i, ch.j, ch.tag, k, kern * (r2 + ch.im_sign_a * i2),
            kern * (r2 - ch.im_sign_a * i2), kern * (r2 - i2)))
    live = [c for c in breakdown if not c.skipped]
    if breakdown and not live:
        raise ThresholdError(
            "all resonant channels fall inside mode-threshold guard bands")
    phase = sum(c.phase for c in live)
    return EnergyResult(sum(c.w_a for c in live), sum(c.w_b for c in live),
                        phase, phase / cn.hbar, family, breakdown)


def w_res_one_excited(config: TwoAtomConfig,
                      series_spec: SeriesSpec = SeriesSpec(),
                      guard_band: float | None = None) -> EnergyResult:
    """Resonant potentials with one atom excited, the other ground.

    Only the downward channels i < a of the excited atom contribute,
    evaluated at the real transition wavenumber k_ai:

      W_A/2 = sum 2 w_j0 k_ai^4 / (eps0^2 hbar (w_ai^2 - w_j0^2))
              (|R|^2 - |I|^2),      W_B/2: same with +|I|^2,

    with R, I the Re/Im Green contractions.  The phase shift equals the
    excited atom's potential.  Channels whose k_ai sits inside a
    threshold guard band are skipped and reported, not fatal.
    """
    scen = config.scenario()
    if scen != "one-excited":
        raise DomainError(f"scenario is {scen!r}, not one-excited")
    return _resonant_sum(config, scen, "res-one-excited", series_spec,
                         guard_band)


def w_res_two_excited_dissimilar(config: TwoAtomConfig,
                                 series_spec: SeriesSpec = SeriesSpec(),
                                 guard_band: float | None = None,
                                 ) -> EnergyResult:
    """Resonant potentials for two dissimilar excited atoms.

    Three contribution families: (i<a, j>b) at k_ai, (i>a, j<b) at k_bj,
    and two (i<a, j<b) sums at k_ai and k_bj with opposite overall signs.
    The phase shift carries the all-(ReRe - ImIm) structure.
    """
    scen = config.scenario()
    # accepts state_b = 0 as well: the j<b families are then empty and the
    # sums reduce term by term to the one-excited result
    if config.state_a == 0 or scen == "both-excited-identical":
        raise DomainError(f"scenario is {scen!r}; need atom A excited and "
                          "atoms dissimilar")
    return _resonant_sum(config, "both-excited-dissimilar",
                         "res-two-excited-dissimilar", series_spec,
                         guard_band)


def w_res_two_excited_identical(config: TwoAtomConfig,
                                series_spec: SeriesSpec = SeriesSpec(),
                                guard_band: float | None = None,
                                derivative_check: bool = True,
                                derivative_path: str = "analytic",
                                ) -> EnergyResult:
    """Resonant potentials of two identical atoms in the same excited
    state.

    The i != j channels carry a pure ReRe potential; the i = j channels
    have double poles and pick up the -2 Re G d/dk[k^2 Re G] term.  Both
    atoms share one potential; the phase shift differs from it through
    the Im.Im pieces.
    """
    scen = config.scenario()
    if scen != "both-excited-identical":
        raise DomainError(f"scenario is {scen!r}, not both-excited-identical")
    if derivative_path not in ("analytic", "finite-difference"):
        raise DomainError(f"unknown derivative path {derivative_path!r}")
    return _resonant_sum(config, scen, "res-two-excited-identical",
                         series_spec, guard_band, derivative_check,
                         derivative_path)


def w_resonant(config: TwoAtomConfig,
               series_spec: SeriesSpec = SeriesSpec(),
               guard_band: float | None = None) -> EnergyResult:
    """Dispatch the resonant computation on the scenario.

    Both-ground configurations have no resonant part and return zeros.
    """
    scen = config.scenario()
    if scen == "both-ground":
        return EnergyResult(0.0, 0.0, 0.0, 0.0, "res-none", [])
    if scen == "one-excited":
        return w_res_one_excited(config, series_spec, guard_band)
    if scen == "both-excited-dissimilar":
        return w_res_two_excited_dissimilar(config, series_spec, guard_band)
    return w_res_two_excited_identical(config, series_spec, guard_band)
