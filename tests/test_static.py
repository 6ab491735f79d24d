"""Electrostatic potentials: sums, limits, shapes, field assembly."""

import math

import numpy as np
import pytest
from scipy import special

import cavdip.green as green
from cavdip.atoms import AtomSpec, TwoAtomConfig
from cavdip.errors import ConfigError, DegenerateError
from cavdip.green import CavityGeometry, green_imaginary_freq
from cavdip.static import (StaticField, static_interaction_from_tensor,
                           v_static_dimensionless, v_static_free,
                           w_static_full)
from conftest import NATURAL


def test_free_space_forms():
    g = CavityGeometry(r=1.0, d=2.0)
    v = v_static_free(g)
    pref = 2.0**3 / (math.pi**2)
    assert v.v00 == pytest.approx(pref / 4)
    # fixed component ratios for all r
    assert v.vpp / v.v00 == pytest.approx(-1.5)
    assert v.vpm / v.v00 == pytest.approx(-0.5)
    # 1/r^3 scaling: doubling r divides each component by 8
    v2 = v_static_free(CavityGeometry(r=2.0, d=2.0))
    assert v2.v00 == pytest.approx(v.v00 / 8)
    # d^3 prefactor: v00 r^3/d^3 = 1/(4 pi^2)
    assert v.v00 * 1.0**3 / 2.0**3 == pytest.approx(1 / (4 * math.pi**2))


def test_sums_against_brute_force():
    geom = CavityGeometry(r=0.1, d=1.0)
    v = v_static_dimensionless(geom)
    n = np.arange(1, 10_001, dtype=float)
    x = math.pi * 0.1
    v00 = 4 * np.sum(n * n * special.k0(2 * x * n))
    odd = n[::2]
    vpp = -0.5 * np.sum(odd * odd * special.k0(x * odd)
                        + (2 / x) * odd * special.k1(x * odd))
    vpm = -0.5 * np.sum(odd * odd * special.k0(x * odd))
    assert v.v00 == pytest.approx(v00, rel=1e-10)
    assert v.vpp == pytest.approx(vpp, rel=1e-10)
    assert v.vpm == pytest.approx(vpm, rel=1e-10)
    # sign pattern at r/d = 0.1
    assert v.v00 > 0 and v.vpp < 0 and v.vpm < 0


def test_rapid_decay_at_large_separation_ratio():
    geom = CavityGeometry(r=3.0, d=1.0)
    v = v_static_dimensionless(geom)
    # the first term dominates within the envelope of the second
    first_00 = 4 * special.k0(2 * math.pi * 3.0)
    second_00 = 16 * special.k0(4 * math.pi * 3.0)
    assert abs(v.v00 - first_00) < 2 * second_00
    assert abs(v.v00) < math.exp(-2 * math.pi * 3.0) * 10


def test_free_space_limit_ratio():
    geom = CavityGeometry(r=0.01, d=1.0)
    ratios = v_static_dimensionless(geom).as_array() \
        / v_static_free(geom).as_array()
    assert np.max(np.abs(ratios - 1)) < 0.01


@pytest.mark.parametrize("rho", [1e-3, 0.005, 0.01, 0.02])
def test_image_law_at_small_separation(rho):
    """r << d (rho = r/d): the first image corrections of the ratios to
    free space are -4 zeta(3) rho^3 (00) and 3 zeta(3) rho^3 (+-), each
    up to a relative O(rho^2), and the (++) ratio departs from 1 only at
    O(rho^5)."""
    geom = CavityGeometry(r=rho, d=1.0)
    v = v_static_dimensionless(geom)
    r00, rpp, rpm = v.as_array() / v_static_free(geom).as_array()
    z3 = special.zeta(3)
    assert abs((r00 - 1) / (-4 * z3 * rho**3) - 1) <= 4 * rho**2
    assert abs((rpm - 1) / (3 * z3 * rho**3) - 1) <= 4 * rho**2
    assert abs(rpp - 1) <= 3 * rho**5
    assert v.n_used[0] == v.n_used[1] == v.n_used[2] > 0


def test_static_answers_and_is_continuous_across_the_route_crossover():
    """v_static answers from r/d = 1e-6 to 10, on the images (free space
    plus the cavity part) below IMAGFREQ_SUM_MIN_R_OVER_D and on the mode
    sums from there, and the two routes meet to 2e-13 per component."""
    cross = green.IMAGFREQ_SUM_MIN_R_OVER_D
    for rod in (1e-6, 1e-3, 0.0199, 0.02, 1.0, 10.0):
        v = v_static_dimensionless(CavityGeometry(r=rod, d=1.0))
        assert np.all(np.isfinite(v.as_array()))
        assert (v.n_used == (green._IMAGES,) * 3) == (rod < cross)
    below, above = (v_static_dimensionless(CavityGeometry(r=rod, d=1.0))
                    for rod in (np.nextafter(cross, 0.0), cross))
    assert below.n_used != above.n_used
    assert np.max(np.abs(below.as_array() / above.as_array() - 1)) <= 2e-13


def test_scale_invariance():
    a = v_static_dimensionless(CavityGeometry(r=0.7, d=1.3))
    b = v_static_dimensionless(CavityGeometry(r=1.4, d=2.6))
    assert a.as_array() == pytest.approx(b.as_array(), rel=1e-12)


def test_pm_ratio_peak_near_equal_lengths():
    rods = np.geomspace(0.2, 3.0, 25)
    ratios = [v_static_dimensionless(CavityGeometry(r=float(x), d=1.0)).vpm
              / v_static_free(CavityGeometry(r=float(x), d=1.0)).vpm
              for x in rods]
    i = int(np.argmax(ratios))
    assert 0.3 <= rods[i] <= 3.0
    assert ratios[i] > 1.0


def test_zero_frequency_green_limit_matches_static_sums():
    """Independent link between modules: u^2 G_pq(iu) -> -(pi/d^3) V_pq
    as u -> 0, connecting the imaginary-frequency tensor to the
    electrostatic mode sums."""
    geom = CavityGeometry(r=0.8, d=1.0)
    u = 1e-4
    g = green_imaginary_freq(geom, u).as_array()          # (pm, pp, 00)
    v = v_static_dimensionless(geom).as_array()           # (00, pp, pm)
    link = -(u * u) * g * geom.d**3 / math.pi
    assert np.max(np.abs(link / v[[2, 1, 0]] - 1)) < 1e-6


# ---------------------------------------------------------------------------
# field handling and the full dimensional potential
# ---------------------------------------------------------------------------

def test_field_construction_and_rejection():
    f = StaticField.from_cartesian(1.0, 2.0, 3.0)
    e0, ep, em = f.e0_spherical
    assert e0 == 3.0
    assert ep == pytest.approx((1 + 2j) / math.sqrt(2))
    assert em == pytest.approx(np.conj(ep))
    with pytest.raises(ConfigError):
        StaticField((1.0 + 1.0j, 0.0, 0.0))
    with pytest.raises(ConfigError):
        StaticField((0.0, 1.0, 0.5))  # E- != conj(E+)
    with pytest.raises(ConfigError):
        StaticField.from_cartesian(1.0 + 1.0j, 0.0, 0.0)


def _static_pair(d_a, d_b, r=0.05, d=1.0):
    atom_a = AtomSpec("A", {0: 0.0, 1: 1.0}, {(0, 1): np.asarray(d_a)})
    atom_b = AtomSpec("B", {0: 0.0, 1: 1.5}, {(0, 1): np.asarray(d_b)})
    return TwoAtomConfig(atom_a, atom_b, 0, 0, CavityGeometry(r, d), NATURAL)


def test_zero_field_gives_zero():
    cfg = _static_pair([0.7, 0.1, 0.1], [0.6, 0.2, 0.2])
    res = w_static_full(cfg, StaticField.from_cartesian(0, 0, 0))
    assert res.w_a == 0.0


def test_pi_polarized_field_selects_axial_channel():
    d_a = np.array([0.7, 0.3, 0.2], dtype=complex)
    d_b = np.array([0.6, 0.1, 0.4], dtype=complex)
    cfg = _static_pair(d_a, d_b)
    field = StaticField.from_cartesian(0.0, 0.0, 2.0)
    res = w_static_full(cfg, field)
    v = v_static_dimensionless(cfg.geometry)
    # only |<i|d0|a>|^2 |<j|d0|b>|^2 E0^2 V00 survives
    pref = 4 * math.pi / (NATURAL.epsilon0 * NATURAL.hbar**2
                          * cfg.geometry.d**3)
    want = pref * 0.7**2 * 0.6**2 * 4.0 * v.v00 / (1.0 * 1.5)
    assert res.w_a == pytest.approx(want, rel=1e-12)


def test_potentials_and_phase_coincide():
    cfg = _static_pair([0.7, 0.2, 0.1], [0.6, 0.1, 0.3])
    res = w_static_full(cfg, StaticField.from_cartesian(1.0, 0.5, 2.0))
    assert res.w_a == res.w_b == res.phase_shift
    assert res.phase_shift_rate == res.phase_shift / NATURAL.hbar
    assert sum(c.w_a for c in res.breakdown) == pytest.approx(res.w_a)


def test_full_matches_free_space_route_at_small_ratio():
    cfg = _static_pair([0.7, 0.2, 0.1], [0.6, 0.1, 0.3], r=0.05, d=1.0)
    field = StaticField.from_cartesian(0.3, 0.0, 1.0)
    full = w_static_full(cfg, field)
    free = static_interaction_from_tensor(cfg, field,
                                          v_static_free(cfg.geometry))
    assert abs(full.w_a / free.w_a - 1) < 0.03


def test_matches_textbook_induced_dipole_interaction():
    """Independent absolute-normalization check: for r/d -> 0 and a field
    along z, the potential must equal the electrostatic interaction of
    the two induced dipoles p = alpha_zz(0) E,

        V = p_A p_B / (4 pi eps0 r^3),

    (dipoles normal to the separation axis, so 1 - 3 cos^2 = 1).  This
    also pins the absence of a 1/2 factor in the assembly."""
    from cavdip.atoms import static_polarisability
    d_a = np.array([0.7, 0.0, 0.0], dtype=complex)
    d_b = np.array([0.6, 0.0, 0.0], dtype=complex)
    cfg = _static_pair(d_a, d_b, r=0.002, d=1.0)
    e_z = 2.0
    res = w_static_full(cfg, StaticField.from_cartesian(0.0, 0.0, e_z))
    # alpha_zz for a single pi transition is 2 d0^2/(hbar omega)
    p_a = 2 * 0.7**2 / 1.0 * e_z
    p_b = 2 * 0.6**2 / 1.5 * e_z
    want = p_a * p_b / (4 * math.pi * 0.002**3)
    assert res.w_a == pytest.approx(want, rel=1e-4)
    # and the isotropic-average polarisability helper is consistent with
    # the single-component value (all weight in d0)
    assert static_polarisability(cfg.atom_a, 0, hbar=1.0) == pytest.approx(
        2 * 0.7**2 / 1.0)


def test_degenerate_transition_rejected():
    atom = AtomSpec("deg", {0: 0.0, 1: 0.0},
                    {(0, 1): np.array([1.0, 0, 0], dtype=complex)})
    cfg = TwoAtomConfig(atom, atom, 0, 0, CavityGeometry(0.05, 1.0), NATURAL)
    with pytest.raises(DegenerateError):
        w_static_full(cfg, StaticField.from_cartesian(0, 0, 1.0))
