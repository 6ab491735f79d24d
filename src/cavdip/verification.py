"""Built-in verification checks behind ``cavdip verify``.

Each check cross-validates independent computation routes (mode sums vs
reflection series vs Kramers-Kronig vs defining integrals) or asserts the
qualitative shape properties of the potentials.  ``quick`` runs the cheap
core in well under a minute; ``full`` runs everything.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import green
from .atoms import AtomSpec, PhysicalConstants, TwoAtomConfig
from .bessel import bessel_j
from .errors import CavdipError
from .green import (CartesianGreen, CavityGeometry, d_dk_k2_re_green,
                    free_space_green, green_imaginary_freq, green_modesum,
                    green_reflection_series, greens_q_integral_oracle,
                    kramers_kronig_re, to_spherical)
from .quadrature import QuadSpec
from .static import v_static_dimensionless, v_static_free
from .vdw import (v_off_dimensionless, v_off_free_dimensionless,
                  v_res_dimensionless, w_off_full, w_res_one_excited,
                  w_res_two_excited_dissimilar, w_res_two_excited_identical)

__all__ = ["CheckResult", "run_checks", "QUICK_CHECKS", "FULL_CHECKS"]


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str
    elapsed: float

    def __post_init__(self):
        # checks compare numpy floats; a numpy.bool_ verdict would not
        # serialise to JSON
        self.passed = bool(self.passed)

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status} {self.name}: {self.detail} [{self.elapsed:.1f}s]"


def _natural_two_level(d0_vec, omega=1.0, label="X"):
    return AtomSpec(label, {0: 0.0, 1: omega},
                    {(0, 1): np.asarray(d0_vec, dtype=complex)})


_NAT = PhysicalConstants(hbar=1.0, epsilon0=1.0, c=1.0)


def check_representation_equivalence(reduced=False, sign_convention="derived",
                                     budget_s=30.0):
    """Criterion 1: mode sums vs reflection series on the (Kr, Kd) grid."""
    t0 = time.monotonic()
    grid_r = (0.2, 1.0, 2.0) if not reduced else (0.2, 2.0)
    grid_d = (2.0, 5.0, 20.0) if not reduced else (2.0, 20.0)
    worst = 0.0
    for kr in grid_r:
        for kd in grid_d:
            geom = CavityGeometry(r=kr, d=kd)
            ms = green_modesum(geom, 1.0).as_array()
            rs = green_reflection_series(
                geom, 1.0, m_max=500, spec=QuadSpec(rel_tol=1e-9),
                sign_convention=sign_convention).green.as_array()
            rel = np.abs(rs - ms) / np.maximum(np.abs(ms), 1e-8)
            worst = max(worst, float(rel.max()))
    elapsed = time.monotonic() - t0
    passed = worst <= 1e-5 and elapsed < budget_s
    return CheckResult(
        "representation-equivalence" + ("-reduced" if reduced else ""),
        passed, f"worst componentwise rel diff {worst:.2e} (tol 1e-5)",
        elapsed)


def check_kramers_kronig():
    """Criterion 2: PV transform of Im G reproduces Re G at 5 points."""
    t0 = time.monotonic()
    worst = 0.0
    for kr, kd in [(1.0, 5.0), (0.5, 2.0), (2.0, 8.0), (1.0, 12.0),
                   (0.7, 4.5)]:
        geom = CavityGeometry(r=kr, d=kd)
        ms = green_modesum(geom, 1.0).as_array().real
        kk = kramers_kronig_re(geom, 1.0).as_array()
        rel = np.abs(kk - ms) / np.maximum(np.abs(ms), 1e-8)
        worst = max(worst, float(rel.max()))
    elapsed = time.monotonic() - t0
    passed = worst <= 1e-4 and elapsed < 60.0
    return CheckResult("kramers-kronig-roundtrip", passed,
                       f"worst rel diff {worst:.2e} (tol 1e-4)", elapsed)


def check_subthreshold():
    """Criterion 3: below kd = pi the in-plane Im parts vanish exactly."""
    t0 = time.monotonic()
    rng = np.random.default_rng(20240817)
    worst_inplane = 0.0
    worst_00 = 0.0
    for _ in range(20):
        kr = rng.uniform(0.1, 3.0)
        kd = rng.uniform(0.2, math.pi - 0.05)
        im = green_modesum(CavityGeometry(r=kr, d=kd), 1.0).as_array().imag
        worst_inplane = max(worst_inplane, abs(im[0]), abs(im[1]))
        ref = -bessel_j(0, kr) / (4 * kd)
        worst_00 = max(worst_00, abs(im[2] - ref) / abs(ref))
    elapsed = time.monotonic() - t0
    passed = worst_inplane == 0.0 and worst_00 <= 1e-12
    return CheckResult(
        "sub-threshold-exactness", passed,
        f"max |Im in-plane| {worst_inplane:.1e}, axial rel err "
        f"{worst_00:.1e}", elapsed)


def check_imagfreq_oracle():
    """Criterion 4: imaginary-frequency forms vs defining-integral oracle;
    for r << d the images' C against the oracle's scattering integral,
    within their bound (r/d)^2/M^4 + 1e-13 relative to the largest
    component (measured: 0.31 of it at u d = 0.1, 5e-15 at u d = 10)."""
    t0 = time.monotonic()
    worst = 0.0
    for ur in (0.5, 2.0):
        for ud in (2.0, 10.0):
            geom = CavityGeometry(r=ur, d=ud)
            gi = green_imaginary_freq(geom, 1.0).as_array()
            orc = to_spherical(greens_q_integral_oracle(geom, 1.0)).as_array()
            rel = np.abs(gi - orc) / np.maximum(np.abs(gi), 1e-12)
            worst = max(worst, float(rel.max()))
    excess = 0.0
    spec = QuadSpec(rel_tol=1e-12, abs_tol=1e-15)
    for rod in (1e-2, 1e-3, 1e-5):
        for ud in (0.1, 10.0):
            c = -green._image_sums(rod * ud, ud, -np.ones(1))
            orc = to_spherical(CartesianGreen(*green._q_integral_scattering(
                rod * ud, ud, 1.0, spec))).as_array()
            rel = np.max(np.abs(c[:, 0] - orc)) / np.max(np.abs(orc))
            excess = max(excess, rel / (rod**2 / green._IMAGES**4 + 1e-13))
    return CheckResult("imaginary-frequency-oracle",
                       worst <= 1e-7 and excess <= 1.0,
                       f"worst rel diff {worst:.2e} (tol 1e-7), images at "
                       f"{excess:.2f} of their bound", time.monotonic() - t0)


def check_free_space_reductions():
    """Criterion 5: all quantities reach free space within 1% at Kd=200."""
    t0 = time.monotonic()
    details = []
    ok = True

    kr = 0.5  # evaluation point away from free-space zeros of the tensor
    geom = CavityGeometry(r=kr, d=200.0)
    ms = green_modesum(geom, 1.0).as_array()
    fs = free_space_green(kr, 1.0).as_array()
    rel_g = float(np.max(np.abs(ms - fs) / np.abs(fs)))
    ok &= rel_g <= 0.01
    details.append(f"green {rel_g:.2e}")

    spec = QuadSpec(rel_tol=1e-7)
    v = v_off_dimensionless(CavityGeometry(r=0.2, d=200.0), 1.0, spec)

    vfree = v_off_free_dimensionless(
        0.2, QuadSpec(rel_tol=1e-9, abs_tol=1e-15)).as_array()
    rel_voff = float(np.max(np.abs(v.as_array() - vfree) / np.abs(vfree)))
    ok &= rel_voff <= 0.01
    details.append(f"v_off {rel_voff:.2e}")

    va, vb = v_res_dimensionless(geom, 1.0)
    sfs = to_spherical(free_space_green(kr, 1.0)).as_array()
    va_f = (sfs.real**2 - sfs.imag**2)
    vb_f = (sfs.real**2 + sfs.imag**2)
    rel_res = max(
        float(np.max(np.abs(np.array([va.vpm, va.vpp, va.v00])
                            / va_f[[0, 1, 2]] - 1))),
        float(np.max(np.abs(np.array([vb.vpm, vb.vpp, vb.v00])
                            / vb_f[[0, 1, 2]] - 1))))
    ok &= rel_res <= 0.01
    details.append(f"v_res {rel_res:.2e}")

    gst = CavityGeometry(r=2.0, d=200.0)  # r/d = 0.01
    vs = v_static_dimensionless(gst).as_array()
    vf = v_static_free(gst).as_array()
    rel_st = float(np.max(np.abs(vs / vf - 1)))
    ok &= rel_st <= 0.01
    details.append(f"v_static {rel_st:.2e}")

    return CheckResult("free-space-reductions", bool(ok),
                       "rel devs at Kd=200: " + ", ".join(details)
                       + " (tol 1e-2)", time.monotonic() - t0)


def check_resonant_algebra():
    """Criterion 6: V_B - V_A = 2 Im^2/K^2 and V_B >= |V_A| pointwise."""
    t0 = time.monotonic()
    worst_id = 0.0
    envelope_ok = True
    for kd in (2.0, 20.0):
        for kr in np.linspace(0.25, 12.0, 25):
            geom = CavityGeometry(r=float(kr), d=kd)
            va, vb = v_res_dimensionless(geom, 1.0)
            im = to_spherical(green_modesum(geom, 1.0)).as_array().imag
            ident = vb.as_array() - va.as_array() \
                - 2 * (im[[2, 1, 0]] ** 2)
            scale = float(np.max(np.abs(vb.as_array()))) + 1e-300
            worst_id = max(worst_id, float(np.max(np.abs(ident))) / scale)
            if np.any(vb.as_array() < np.abs(va.as_array()) - 1e-12 * scale):
                envelope_ok = False
    passed = worst_id <= 1e-13 and envelope_ok
    return CheckResult(
        "resonant-algebra", passed,
        f"identity residual {worst_id:.1e}, envelope "
        f"{'holds' if envelope_ok else 'violated'}",
        time.monotonic() - t0)


def _fig4_sweep(n_points=21, rel_tol=1e-6):
    kds = np.geomspace(0.02, 20.0, n_points)
    rows = np.array([v_off_dimensionless(CavityGeometry(r=0.2, d=float(kd)),
                                         1.0, QuadSpec(rel_tol=rel_tol)
                                         ).as_array()
                     for kd in kds])
    return kds, rows  # columns: v00, vpp, vpm


def check_fig4_shape(budget_s=10.0):
    """Criterion 7: off-resonant tensor shapes vs Kd at Kr = 0.2."""
    t0 = time.monotonic()
    kds, rows = _fig4_sweep()
    v00, vpp, vpm = rows[:, 0], rows[:, 1], rows[:, 2]
    msgs = []
    small_d = kds <= 0.2
    vpp_small = vpp[small_d]
    # monotone decay to zero as d shrinks (tiny-value noise floor allowed)
    pp_monotone = bool(np.all(np.diff(vpp_small) > -1e-9 * vpp.max())
                       and vpp_small[0] < 1e-6 * vpp.max())
    if not pp_monotone:
        msgs.append("V++ not monotone to 0 for d << r")
    i_max = int(np.argmax(vpm))
    pm_bump = (0 < i_max < len(kds) - 1 and 0.04 <= kds[i_max] <= 1.0
               and vpm[i_max] > vpm[-1] and vpm[i_max] > vpm[0])
    if not pm_bump:
        msgs.append(f"V+- bump misplaced (argmax at Kd={kds[i_max]:.3g})")
    i_min = int(np.argmin(v00))
    z_min = (0 < i_min < len(kds) - 1 and 0.04 <= kds[i_min] <= 1.0
             and v00[0] > v00[i_min] and v00[-1] > v00[i_min]
             and bool(np.all(np.diff(v00[:i_min + 1]) < 0)))
    if not z_min:
        msgs.append(f"V00 minimum misplaced (argmin at Kd={kds[i_min]:.3g})")
    elapsed = time.monotonic() - t0
    if elapsed >= budget_s:
        msgs.append(f"took {elapsed:.1f}s (budget {budget_s:g}s)")
    passed = not msgs
    detail = "bump/minimum/monotone assertions hold" if passed \
        else "; ".join(msgs)
    return CheckResult("fig4-offresonant-shape", passed, detail, elapsed)


def check_fig7_shape():
    """Criterion 8: static ratios: single +- maximum > 1 near r = d."""
    t0 = time.monotonic()
    rods = np.geomspace(0.02, 8.0, 40)
    ratios = []
    for rod in rods:
        geom = CavityGeometry(r=float(rod), d=1.0)
        ratios.append(v_static_dimensionless(geom).as_array()
                      / v_static_free(geom).as_array())
    ratios = np.array(ratios)  # columns 00, pp, pm
    msgs = []
    for c, name in ((0, "00"), (1, "++")):
        if not np.all(np.diff(ratios[:, c]) <= 1e-12):
            msgs.append(f"ratio {name} not monotone decreasing")
    pm = ratios[:, 2]
    i_max = int(np.argmax(pm))
    if not (0 < i_max < len(rods) - 1 and 0.3 <= rods[i_max] <= 3.0
            and pm[i_max] > 1.0):
        msgs.append(f"+- maximum misplaced (r/d={rods[i_max]:.3g}, "
                    f"peak={pm[i_max]:.3f})")
    if not (np.all(np.diff(pm[:i_max + 1]) > -1e-12)
            and np.all(np.diff(pm[i_max:]) < 1e-12)):
        msgs.append("+- ratio not single-bump")
    if np.max(ratios[-1]) > 1e-3:
        msgs.append("ratios do not vanish for r/d >> 1")
    passed = not msgs
    return CheckResult("fig7-static-shape", passed,
                       "single bump > 1 near r=d; 00/++ monotone; all -> 0"
                       if passed else "; ".join(msgs),
                       time.monotonic() - t0)


def check_static_free_limit():
    """Criterion 9: static sums within 1% of free-space forms at r/d=0.01;
    free space plus the images within 1e-12 of the mode sums per component
    at r/d = 0.005 and 0.01 (measured: <= 4.2e-15)."""
    t0 = time.monotonic()
    geom = CavityGeometry(r=0.01, d=1.0)
    vs = v_static_dimensionless(geom).as_array()
    vf = v_static_free(geom).as_array()
    worst = float(np.max(np.abs(vs / vf - 1)))
    routes = 0.0
    for rod in (0.005, 0.01):
        free = v_static_free(CavityGeometry(r=rod, d=1.0)).as_array()
        images, modes = (sums(rod, 1.0, np.zeros(1))[::-1, 0] / math.pi
                         for sums in (green._image_sums, green._mode_sums))
        dev = np.abs((free + images) / modes - 1)
        routes = max(routes, float(dev.max()))
    return CheckResult("static-free-space-limit",
                       worst <= 0.01 and routes <= 1e-12,
                       f"worst ratio dev {worst:.2e} (tol 1e-2), routes "
                       f"apart by {routes:.1e} (tol 1e-12)",
                       time.monotonic() - t0)


def check_double_pole():
    """Criterion 10: analytic vs finite-difference d/dk[k^2 Re G]."""
    t0 = time.monotonic()
    rng = np.random.default_rng(7)
    worst = 0.0
    n = 0
    while n < 10:
        kr = rng.uniform(0.3, 2.5)
        kd = rng.uniform(1.2, 25.0)
        if abs(kd / math.pi - round(kd / math.pi)) < 0.02:
            continue
        res = d_dk_k2_re_green(CavityGeometry(r=kr, d=kd), 1.0, check=False)
        worst = max(worst, res.max_rel_mismatch)
        n += 1
    atom = _natural_two_level([0.6, 0.3, 0.3])
    cfg = TwoAtomConfig(atom, atom, 1, 1, CavityGeometry(r=1.0, d=5.0), _NAT)
    w_an = w_res_two_excited_identical(cfg, derivative_path="analytic")
    w_fd = w_res_two_excited_identical(cfg, derivative_path="finite-difference")
    rel_w = abs(w_an.w_a - w_fd.w_a) / abs(w_an.w_a)
    passed = worst <= 1e-6 and rel_w <= 1e-6
    return CheckResult(
        "double-pole-derivative", passed,
        f"derivative mismatch {worst:.2e}, potential path diff {rel_w:.2e} "
        "(tol 1e-6)", time.monotonic() - t0)


def check_scenario_reductions():
    """Criterion 11: dissimilar formulas with B ground reduce to
    one-excited; off-resonant potentials coincide for both atoms."""
    t0 = time.monotonic()
    d0 = np.array([0.7, 0.2, 0.1], dtype=complex)
    atom_a = _natural_two_level(d0, omega=1.0, label="A")
    atom_b = AtomSpec("B", {0: 0.0, 1: 1.3, 2: 2.4},
                      {(0, 1): 0.9 * d0,
                       (1, 2): np.array([0.3, 0.1, 0.2], dtype=complex)})
    geom = CavityGeometry(r=1.0, d=5.0)
    cfg = TwoAtomConfig(atom_a, atom_b, 1, 0, geom, _NAT)
    red = w_res_two_excited_dissimilar(cfg)
    one = w_res_one_excited(cfg)
    dev = max(abs(red.w_a - one.w_a), abs(red.w_b - one.w_b),
              abs(red.phase_shift - one.phase_shift))
    scale = max(abs(one.w_a), abs(one.w_b))
    ok = dev <= 1e-14 * scale

    off_ok = True
    for sa, sb in ((0, 0), (1, 0), (1, 1)):
        cfg2 = TwoAtomConfig(atom_a, atom_b, sa, sb, geom, _NAT)
        off = w_off_full(cfg2, QuadSpec(rel_tol=1e-7))
        if not (off.w_a == off.w_b == off.phase_shift):
            off_ok = False
    passed = ok and off_ok
    return CheckResult(
        "scenario-reductions", passed,
        f"B-ground reduction dev {dev:.1e}; off-resonant equality "
        f"{'holds' if off_ok else 'violated'}", time.monotonic() - t0)


QUICK_CHECKS = [
    lambda: check_representation_equivalence(reduced=True),
    check_subthreshold,
    check_resonant_algebra,
    check_static_free_limit,
]

FULL_CHECKS = [
    check_representation_equivalence,
    check_kramers_kronig,
    check_subthreshold,
    check_imagfreq_oracle,
    check_free_space_reductions,
    check_resonant_algebra,
    check_fig4_shape,
    check_fig7_shape,
    check_static_free_limit,
    check_double_pole,
    check_scenario_reductions,
]


def run_checks(level: str = "quick"):
    """Run the verification suite; returns (results, all_passed)."""
    if level not in ("quick", "full"):
        raise CavdipError(f"unknown verification level {level!r}")
    t0 = time.monotonic()
    checks = QUICK_CHECKS if level == "quick" else FULL_CHECKS
    results = []
    for check in checks:
        try:
            results.append(check())
        except CavdipError as err:
            results.append(CheckResult(getattr(check, "__name__", "check"),
                                       False, f"raised {err!r}", 0.0))
    total = time.monotonic() - t0
    if level == "quick":
        results.append(CheckResult("quick-runtime-budget", total < 60.0,
                                   f"quick suite took {total:.1f}s "
                                   "(budget 60s)", total))
    return results, all(r.passed for r in results)
