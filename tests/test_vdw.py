"""Van der Waals potentials: dual code paths, identities, reductions."""

import math

import numpy as np
import pytest

import cavdip.vdw as vdw
from cavdip.atoms import AtomSpec, TwoAtomConfig, swap_conj
from cavdip.errors import (ConvergenceError, DegenerateError, DomainError,
                           ThresholdError)
from cavdip.green import (CavityGeometry, free_space_green_imag,
                          green_imaginary_freq, green_modesum,
                          to_spherical)
from cavdip.quadrature import QuadSpec, integrate_semi_infinite_damped
from cavdip.vdw import (contract, v_off_dimensionless, v_off_integrand,
                        v_res_dimensionless, w_off_factorized, w_off_full,
                        w_res_one_excited, w_res_two_excited_dissimilar,
                        w_res_two_excited_identical, w_resonant)
from conftest import NATURAL

D0 = np.array([0.7, 0.0, 0.0], dtype=complex)


def _pair(da, db, omega_a=1.0, omega_b=1.3, r=1.0, d=5.0, sa=0, sb=0):
    atom_a = AtomSpec("A", {0: 0.0, 1: omega_a}, {(0, 1): np.asarray(da)})
    atom_b = AtomSpec("B", {0: 0.0, 1: omega_b}, {(0, 1): np.asarray(db)})
    return TwoAtomConfig(atom_a, atom_b, sa, sb,
                         CavityGeometry(r=r, d=d), NATURAL)


# ---------------------------------------------------------------------------
# spherical contraction against an independent Cartesian transcription
# ---------------------------------------------------------------------------

def _to_cartesian_vec(v):
    """(d0, d+, d-) -> (dx, dy, dz) under d+- = (dx +- i dy)/sqrt(2)."""
    d0, dp, dm = v
    dx = (dp + dm) / math.sqrt(2)
    dy = (dp - dm) / (1j * math.sqrt(2))
    return np.array([dx, dy, d0])


def test_contract_matches_cartesian_tensor_algebra():
    rng = np.random.default_rng(5)
    for _ in range(25):
        x = rng.normal(size=3) + 1j * rng.normal(size=3)
        y = rng.normal(size=3) + 1j * rng.normal(size=3)
        g_par, g_perp, g_00 = rng.normal(size=3)
        g_sph = np.array([(g_par + g_perp) / 2, (g_par - g_perp) / 2, g_00])
        got = contract(x, g_sph, y)
        gmat = np.diag([g_par, g_perp, g_00]).astype(complex)
        xc = _to_cartesian_vec(x)
        yc = _to_cartesian_vec(y)
        want = xc @ gmat @ yc  # plain bilinear sum, no conjugation
        assert abs(got - want) < 1e-12 * max(1.0, abs(want))


def test_reversed_element_conjugates_the_contraction():
    rng = np.random.default_rng(6)
    x = rng.normal(size=3) + 1j * rng.normal(size=3)
    y = rng.normal(size=3) + 1j * rng.normal(size=3)
    g = rng.normal(size=3)
    f1 = contract(x, g, swap_conj(y))
    f2 = contract(y, g, swap_conj(x))
    assert abs(f2 - np.conj(f1)) < 1e-12


# ---------------------------------------------------------------------------
# off-resonant family
# ---------------------------------------------------------------------------

def test_v_off_integrand_vanishes_at_origin():
    f = v_off_integrand(CavityGeometry(r=0.5, d=2.0), 1.0)
    assert np.all(f(np.array([0.0])) == 0.0)
    # and is finite just off the origin (the limit is finite, not zero)
    assert np.all(np.isfinite(f(np.array([1e-8]))))


def test_v_off_evaluates_green_once_per_node_array(monkeypatch):
    """The outer quadrature hands whole node arrays to one imaginary-
    frequency Green call; per-node calls cost ~1e3 calls per point."""
    seen = []

    def counting(geom, u, *args, **kwargs):
        seen.append(np.size(u))
        return green_imaginary_freq(geom, u, *args, **kwargs)

    monkeypatch.setattr(vdw, "green_imaginary_freq", counting)
    v_off_dimensionless(CavityGeometry(r=0.2, d=2.0), 1.0,
                        QuadSpec(rel_tol=1e-6))
    assert len(seen) <= 20
    assert sum(seen) >= 50 * len(seen)


def test_v_off_free_space_reduction():
    kr = 0.2
    v = v_off_dimensionless(CavityGeometry(r=kr, d=300.0), 1.0,
                            QuadSpec(rel_tol=1e-8))

    def f(q):
        out = np.zeros((len(q), 3))
        for i, qi in enumerate(q):
            if qi == 0.0:
                continue
            g = to_spherical(free_space_green_imag(kr, qi)).as_array()
            out[i] = qi**4 / (1 + qi * qi) ** 2 * g * g
        return out

    ref, _ = integrate_semi_infinite_damped(f, 0.0, 2 * kr,
                                            QuadSpec(rel_tol=1e-10,
                                                     abs_tol=1e-15))
    got = np.array([v.vpm, v.vpp, v.v00])
    assert np.max(np.abs(got / ref - 1)) < 5e-3


def _exp_sinh_grid():
    """Seeded (Kr, Kd) in [0.02, 20] x [2e-4, 2e4], log-uniform, plus
    r/d = 1000 and 1e-5."""
    rng = np.random.default_rng(20281022)
    kr = 10 ** rng.uniform(math.log10(0.02), math.log10(20.0), 8)
    kd = 10 ** rng.uniform(math.log10(2e-4), math.log10(2e4), 8)
    return [*zip(kr, kd), (0.2, 2e-4), (20.0, 0.02), (0.2, 2e4), (0.02, 2e3)]


@pytest.mark.parametrize("rel_tol", [1e-6, 1e-10])
def test_exp_sinh_estimate_bounds_its_error(rel_tol):
    """The estimate the exp-sinh rule returns is at least its actual
    error, measured against the adaptive rule at rel_tol 1e-12."""
    for kr, kd in _exp_sinh_grid():
        f = v_off_integrand(CavityGeometry(r=kr, d=kd), 1.0)
        val, est = vdw._exp_sinh(f, vdw._U_CUT / min(kr, kd), rel_tol)
        scale = np.max(np.abs(val))
        assert 0 < est <= rel_tol * scale
        # the integrand in units of the result, so that abs_tol is relative
        ref, _ = integrate_semi_infinite_damped(
            lambda q: f(q) / scale, 0.0, 2 * min(kr, kd),
            QuadSpec(rel_tol=1e-12, abs_tol=1e-16))
        actual = np.max(np.abs(val - scale * np.asarray(ref)))
        assert actual <= est, (kr, kd, actual, est)


def test_exp_sinh_raises_when_five_levels_do_not_converge():
    def f(q):
        return (np.sin(1e3 * q) * np.exp(-q))[:, None]

    with pytest.raises(ConvergenceError):
        vdw._exp_sinh(f, vdw._U_CUT, 1e-6)


def test_exp_sinh_refuses_a_cut_below_every_node():
    with pytest.raises(DomainError):
        v_off_dimensionless(CavityGeometry(r=1e33, d=1e33), 1.0)


def test_w_off_full_equals_factorized_for_matched_frequencies(desk_pair):
    """With k_ia = k_jb = K and a pure transition the factorization is
    exact, so the two independent code paths must agree to quadrature
    accuracy (spec'd at 1e-6; they match to rounding)."""
    full = w_off_full(desk_pair, QuadSpec(rel_tol=1e-9))
    fact = w_off_factorized(desk_pair, K=1.0, spec=QuadSpec(rel_tol=1e-9))
    assert full.w_a == pytest.approx(fact.w_a, rel=1e-6)
    assert full.w_a < 0  # both-ground pairs attract in free space


def test_w_off_equalities_and_breakdown(desk_pair):
    res = w_off_full(desk_pair, QuadSpec(rel_tol=1e-8))
    assert res.w_a == res.w_b == res.phase_shift
    assert res.phase_shift_rate == res.phase_shift / NATURAL.hbar
    assert sum(c.w_a for c in res.breakdown) == pytest.approx(res.w_a)


def test_w_off_pi_dipoles_select_axial_channel(desk_pair):
    """Pure d0 dipoles couple only through the axial tensor component, so
    the exact result carries exactly the factorized V00 term."""
    fact = w_off_factorized(desk_pair, K=1.0, spec=QuadSpec(rel_tol=1e-9))
    v = v_off_dimensionless(desk_pair.geometry, 1.0, QuadSpec(rel_tol=1e-9))
    pref = -2.0 / (math.pi * NATURAL.hbar * NATURAL.epsilon0**2 * NATURAL.c)
    want = pref * abs(0.7) ** 4 * v.v00
    assert fact.w_a == pytest.approx(want, rel=1e-12)


def test_w_off_london_near_field_limit():
    """Independent absolute-normalization check: in free space at
    kr << 1 the potential of two pi-coupled two-level atoms must approach
    the textbook second-order perturbation result for the electrostatic
    dipole-dipole coupling,

        V -> - dA^2 dB^2 / [(4 pi eps0)^2 r^6 hbar (wA + wB)],

    (dipoles normal to the separation axis).  Retardation corrections are
    O((kr)^2)."""
    r = 0.01
    cfg = _pair(D0, 0.9 * D0, omega_a=1.0, omega_b=1.3, r=r, d=300.0)
    got = w_off_full(cfg, QuadSpec(rel_tol=1e-8)).w_a
    dA2 = 0.7**2
    dB2 = (0.9 * 0.7) ** 2
    london = -dA2 * dB2 / ((4 * math.pi) ** 2 * r**6 * (1.0 + 1.3))
    assert got == pytest.approx(london, rel=2e-3)


def test_w_off_zero_dipoles():
    zero = np.zeros(3, dtype=complex)
    cfg = _pair(zero, zero)
    assert w_off_factorized(cfg, K=1.0).w_a == 0.0
    assert w_off_full(cfg).w_a == 0.0


def test_w_off_degenerate_transition():
    cfg = _pair(D0, D0, omega_a=0.0)
    with pytest.raises(DegenerateError):
        w_off_full(cfg)


def test_mixed_polarization_factorized_tracks_full():
    """Dominantly-pi dipoles with a 10% sigma admixture at matched
    frequencies: the factorized route drops the interference between
    tensor channels, so agreement is approximate (budget 5%).  For
    strongly mixed dipoles the interference is order one and the
    factorization is qualitative only."""
    da = np.array([0.7, 0.07, 0.0], dtype=complex)
    db = np.array([0.7, 0.07, 0.0], dtype=complex)
    cfg = _pair(da, db, omega_b=1.0, r=0.5, d=300.0)
    full = w_off_full(cfg, QuadSpec(rel_tol=1e-8))
    fact = w_off_factorized(cfg, K=1.0, spec=QuadSpec(rel_tol=1e-8))
    assert abs(fact.w_a / full.w_a - 1) < 0.05


# ---------------------------------------------------------------------------
# resonant: dimensionless potentials
# ---------------------------------------------------------------------------

def test_v_res_identity_and_subthreshold_coincidence():
    geom = CavityGeometry(r=1.0, d=5.0)
    va, vb = v_res_dimensionless(geom, 1.0)
    im = to_spherical(green_modesum(geom, 1.0)).as_array().imag
    diff = vb.as_array() - va.as_array()
    assert np.allclose(diff, 2 * im[[2, 1, 0]] ** 2, rtol=0, atol=1e-16)
    assert np.all(vb.as_array() >= np.abs(va.as_array()) - 1e-16)

    # below the first threshold the in-plane Im parts vanish, so the two
    # potentials coincide for the (++) and (+-) components
    va2, vb2 = v_res_dimensionless(CavityGeometry(r=1.0, d=2.0), 1.0)
    assert va2.vpp == vb2.vpp
    assert va2.vpm == vb2.vpm
    assert va2.v00 != vb2.v00  # the axial Im part never vanishes


def test_v_res_threshold_error():
    with pytest.raises(ThresholdError):
        v_res_dimensionless(CavityGeometry(r=1.0, d=math.pi), 1.0)


# ---------------------------------------------------------------------------
# resonant: one atom excited
# ---------------------------------------------------------------------------

def test_one_excited_identities():
    cfg = _pair(D0, 0.9 * D0, sa=1, sb=0)
    res = w_res_one_excited(cfg)
    assert res.phase_shift == res.w_a
    # w_b - w_a is twice the Im.Im channel sum
    geom = cfg.geometry
    im = to_spherical(green_modesum(geom, 1.0)).as_array().imag
    kern = 2 * 1.3 / (1.0 - 1.3**2)
    ii = abs(contract(D0, im, swap_conj(0.9 * D0))) ** 2
    assert res.w_b - res.w_a == pytest.approx(2 * kern * ii, rel=1e-12)


def test_one_excited_dual_path_against_v_res():
    cfg = _pair(D0, 0.9 * D0, sa=1, sb=0)
    res = w_res_one_excited(cfg)
    va, vb = v_res_dimensionless(cfg.geometry, 1.0)
    kern = 2 * 1.3 / (1.0 - 1.3**2)
    d4 = 0.7**2 * (0.9 * 0.7) ** 2
    assert res.w_a == pytest.approx(kern * d4 * va.v00, rel=1e-12)
    assert res.w_b == pytest.approx(kern * d4 * vb.v00, rel=1e-12)


def test_one_excited_subthreshold_sigma_equality():
    dp = np.array([0.0, 0.5, 0.5], dtype=complex)
    cfg = _pair(dp, dp, omega_b=1.4, r=1.0, d=2.0, sa=1, sb=0)
    res = w_res_one_excited(cfg)
    assert res.w_a == res.w_b  # empty in-plane mode sum below kd = pi


def test_one_excited_wrong_scenario():
    with pytest.raises(DomainError):
        w_res_one_excited(_pair(D0, D0))


def test_one_excited_degenerate_detuning():
    cfg = _pair(D0, D0, omega_a=1.0, omega_b=1.0, sa=1, sb=0)
    with pytest.raises(DegenerateError):
        w_res_one_excited(cfg)


def test_one_excited_threshold_channel_skipped():
    # k_a1 = 1 exactly at the first threshold of d = pi
    cfg = _pair(D0, 0.9 * D0, r=1.0, d=math.pi, sa=1, sb=0)
    with pytest.raises(ThresholdError):
        w_res_one_excited(cfg)  # the only channel is skipped -> no result


def test_resonant_dispatcher(desk_pair):
    res = w_resonant(desk_pair)
    assert res.w_a == res.w_b == res.phase_shift == 0.0
    cfg = _pair(D0, 0.9 * D0, sa=1, sb=0)
    assert w_resonant(cfg).family == "res-one-excited"


# ---------------------------------------------------------------------------
# resonant: two excited atoms, independent transcription oracle
# ---------------------------------------------------------------------------

def _green_cartesian_matrices(geom, k):
    g = green_modesum(geom, k)
    re = np.diag([g.g_par.real, g.g_perp.real, g.g_00.real])
    im = np.diag([g.g_par.imag, g.g_perp.imag, g.g_00.imag])
    return re, im


def _scratch_dissimilar(config):
    """Line-by-line transcription of the two-excited channel sums in
    Cartesian components: an independent oracle for the spherical-basis
    production path.  Matrix elements: cart(i->j) = <i|d|j>, reversal is
    plain conjugation in the Cartesian basis."""
    cn = config.constants
    geom = config.geometry
    a, b = config.state_a, config.state_b
    A, B = config.atom_a, config.atom_b

    def cart(atom, i, j):
        return _to_cartesian_vec(atom.dipole(i, j))

    def term(x1, x2, x3, x4, k, sign_im):
        re, im = _green_cartesian_matrices(geom, k)
        rr = (x1 @ re @ x2) * (x3 @ re @ x4)
        ii = (x1 @ im @ x2) * (x3 @ im @ x4)
        return (rr + sign_im * ii).real

    wa = wb = de = 0.0
    for i in (i for i in A.coupled_to(a) if i < a):
        w_ai = A.omega(a) - A.omega(i)
        k_ai = w_ai / cn.c
        for j in (j for j in B.coupled_to(b) if j > b):
            w_jb = B.omega(j) - B.omega(b)
            kern = 2 * w_jb * k_ai**4 / (cn.epsilon0**2 * cn.hbar
                                         * (w_ai**2 - w_jb**2))
            x = (cart(A, a, i), cart(B, b, j), cart(B, j, b), cart(A, i, a))
            wa += kern * term(*x, k_ai, -1)
            wb += kern * term(*x, k_ai, +1)
            de += kern * term(*x, k_ai, -1)
    for i in (i for i in A.coupled_to(a) if i > a):
        w_ia = A.omega(i) - A.omega(a)
        for j in (j for j in B.coupled_to(b) if j < b):
            w_bj = B.omega(b) - B.omega(j)
            k_bj = w_bj / cn.c
            kern = 2 * w_ia * k_bj**4 / (cn.epsilon0**2 * cn.hbar
                                         * (w_bj**2 - w_ia**2))
            x = (cart(B, b, j), cart(A, a, i), cart(A, i, a), cart(B, j, b))
            wa += kern * term(*x, k_bj, +1)
            wb += kern * term(*x, k_bj, -1)
            de += kern * term(*x, k_bj, -1)
    for i in (i for i in A.coupled_to(a) if i < a):
        w_ai = A.omega(a) - A.omega(i)
        k_ai = w_ai / cn.c
        for j in (j for j in B.coupled_to(b) if j < b):
            w_bj = B.omega(b) - B.omega(j)
            k_bj = w_bj / cn.c
            den = w_ai**2 - w_bj**2
            kern_a = 2 * w_bj * k_ai**4 / (cn.epsilon0**2 * cn.hbar * den)
            x = (cart(A, a, i), cart(B, j, b), cart(B, b, j), cart(A, i, a))
            wa -= kern_a * term(*x, k_ai, -1)
            wb -= kern_a * term(*x, k_ai, +1)
            de -= kern_a * term(*x, k_ai, -1)
            kern_b = 2 * w_ai * k_bj**4 / (cn.epsilon0**2 * cn.hbar * den)
            y = (cart(B, b, j), cart(A, a, i), cart(A, i, a), cart(B, j, b))
            wa += kern_b * term(*y, k_bj, +1)
            wb += kern_b * term(*y, k_bj, -1)
            de += kern_b * term(*y, k_bj, -1)
    return wa, wb, de


def _three_level_pair():
    da = {(0, 1): np.array([0.7, 0.1, 0.05], dtype=complex),
          (1, 2): np.array([0.4, 0.1, 0.1], dtype=complex),
          (0, 2): np.array([0.0, 0.2, 0.3], dtype=complex)}
    db = {(0, 1): np.array([0.55, 0.0, 0.1], dtype=complex),
          (1, 2): np.array([0.3, 0.2, 0.0], dtype=complex)}
    atom_a = AtomSpec("A3", {0: 0.0, 1: 1.0, 2: 2.2}, da)
    atom_b = AtomSpec("B3", {0: 0.0, 1: 1.45, 2: 2.9}, db)
    return TwoAtomConfig(atom_a, atom_b, 1, 1, CavityGeometry(1.0, 5.0),
                         NATURAL)


def test_dissimilar_matches_independent_transcription():
    cfg = _three_level_pair()
    res = w_res_two_excited_dissimilar(cfg)
    wa, wb, de = _scratch_dissimilar(cfg)
    assert res.w_a == pytest.approx(wa, rel=1e-10)
    assert res.w_b == pytest.approx(wb, rel=1e-10)
    assert res.phase_shift == pytest.approx(de, rel=1e-10)
    # dE generally differs from both potentials
    assert abs(res.phase_shift - res.w_a) > 1e-12
    assert abs(res.phase_shift - res.w_b) > 1e-12


def test_dissimilar_reduces_to_one_excited():
    cfg = _pair(D0, 0.9 * D0, sa=1, sb=0)
    red = w_res_two_excited_dissimilar(cfg)
    one = w_res_one_excited(cfg)
    assert red.w_a == one.w_a
    assert red.w_b == one.w_b
    assert red.phase_shift == one.phase_shift


def test_dissimilar_subthreshold_equalities():
    """Below the first threshold with pure sigma dipoles all Im parts
    vanish at the evaluation wavenumbers, so w_a, w_b and dE coincide up
    to the printed sign patterns."""
    dp = np.array([0.0, 0.5, 0.5], dtype=complex)
    atom_a = AtomSpec("A", {0: 0.0, 1: 0.8}, {(0, 1): dp})
    atom_b = AtomSpec("B", {0: 0.0, 1: 0.9}, {(0, 1): dp})
    cfg = TwoAtomConfig(atom_a, atom_b, 1, 1, CavityGeometry(1.0, 2.5),
                        NATURAL)
    res = w_res_two_excited_dissimilar(cfg)
    assert res.w_a == pytest.approx(res.w_b, rel=1e-14)
    assert res.phase_shift == pytest.approx(res.w_a, rel=1e-14)


def test_dissimilar_degenerate():
    cfg = _pair(D0, D0, omega_a=1.0, omega_b=1.0, sa=1, sb=1)
    # identical frequencies but different labels/dipoles -> dissimilar
    cfg.atom_b.dipoles[(0, 1)] = 0.9 * D0
    with pytest.raises(DegenerateError):
        w_res_two_excited_dissimilar(cfg)


# ---------------------------------------------------------------------------
# resonant: identical atoms
# ---------------------------------------------------------------------------

def test_identical_two_level_structure():
    atom = AtomSpec("I", {0: 0.0, 1: 1.0}, {(0, 1): D0})
    cfg = TwoAtomConfig(atom, atom, 1, 1, CavityGeometry(1.0, 5.0), NATURAL)
    res = w_res_two_excited_identical(cfg)
    assert [c.tag for c in res.breakdown] == ["res-identical(i=j)"]
    assert res.w_a == res.w_b

    # dE - w_a = -kern * k * (Im contraction)^2 for the single channel
    im = to_spherical(green_modesum(cfg.geometry, 1.0)).as_array().imag
    fi = contract(D0, im, swap_conj(D0)).real
    kern = 1.0 / (NATURAL.epsilon0**2 * NATURAL.c * NATURAL.hbar)
    assert res.phase_shift - res.w_a == pytest.approx(-kern * fi * fi,
                                                      rel=1e-12)


def test_identical_derivative_paths_agree():
    atom = AtomSpec("I", {0: 0.0, 1: 1.0},
                    {(0, 1): np.array([0.6, 0.3, 0.3], dtype=complex)})
    cfg = TwoAtomConfig(atom, atom, 1, 1, CavityGeometry(1.0, 5.0), NATURAL)
    w_an = w_res_two_excited_identical(cfg, derivative_path="analytic")
    w_fd = w_res_two_excited_identical(cfg,
                                       derivative_path="finite-difference")
    assert abs(w_an.w_a / w_fd.w_a - 1) < 1e-6


def test_identical_wrong_scenario():
    with pytest.raises(DomainError):
        w_res_two_excited_identical(_pair(D0, 0.9 * D0, sa=1, sb=1))


def test_relabeling_symmetry():
    """Swapping the atom labels (A <-> B, states along) leaves the
    physics invariant: the off-resonant potential is unchanged and the
    resonant potentials swap w_a <-> w_b."""
    da = np.array([0.7, 0.1, 0.0], dtype=complex)
    db = np.array([0.5, 0.0, 0.2], dtype=complex)
    cfg = _pair(da, db, sa=0, sb=0, d=5.0)
    cfg_sw = _pair(db, da, omega_a=1.3, omega_b=1.0, sa=0, sb=0, d=5.0)
    assert w_off_full(cfg).w_a == pytest.approx(w_off_full(cfg_sw).w_a,
                                                rel=1e-9)
    one = w_res_one_excited(_pair(da, db, sa=1, sb=0, d=5.0))
    one_sw = w_res_one_excited(_pair(db, da, omega_a=1.3, omega_b=1.0,
                                     sa=0, sb=1, d=5.0))
    assert one_sw.w_a == pytest.approx(one.w_b, rel=1e-12)
    assert one_sw.w_b == pytest.approx(one.w_a, rel=1e-12)
    assert one_sw.phase_shift == pytest.approx(one.phase_shift, rel=1e-12)


def test_breakdown_totals_consistent():
    cfg = _three_level_pair()
    for res in (w_res_two_excited_dissimilar(cfg), w_off_full(cfg)):
        live = [c for c in res.breakdown if not c.skipped]
        assert sum(c.w_a for c in live) == pytest.approx(res.w_a, rel=1e-12)
        assert sum(c.w_b for c in live) == pytest.approx(res.w_b, rel=1e-12)
        assert sum(c.phase for c in live) == pytest.approx(res.phase_shift,
                                                           rel=1e-12)
