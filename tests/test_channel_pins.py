"""Stored energies of every channel sum, pinned to the last bit.

Each resonant formula, the perturbative-regime report of each scenario,
and the factorized off-resonant and electrostatic sums are evaluated on
small natural-unit documents.  The expected values below were computed
once and stored; a rewrite of how the channels are enumerated must
reproduce them to 1e-15 relative, with the same tags, regime names and
skip flags.  The pair of atoms carries distinct d+ and d- components, so
a swapped +/- pairing moves the factorized and electrostatic values.
"""

import math

import numpy as np
import pytest

from cavdip.atoms import (AtomSpec, PhysicalConstants, TwoAtomConfig,
                          check_perturbative_regime)
from cavdip.green import CavityGeometry
from cavdip.static import StaticField, w_static_full
from cavdip.vdw import (w_off_factorized, w_res_one_excited,
                        w_res_two_excited_dissimilar,
                        w_res_two_excited_identical)

NATURAL = PhysicalConstants(hbar=1.0, epsilon0=1.0, c=1.0)
REL = 1e-15


def _d(*parts):
    return np.array([complex(*p) for p in parts])


# three-level atoms: 0 -- 1 -- 2 coupled in a ladder (and 0 -- 2 for A)
ATOM_A = AtomSpec("A", {0: 0.0, 1: 1.0, 2: 1.7},
                  {(0, 1): _d((0.6, 0.1), (0.3, -0.2), (-0.1, 0.4)),
                   (1, 2): _d((0.2, 0.0), (0.5, 0.3), (0.15, -0.05)),
                   (0, 2): _d((0.1, -0.3), (-0.2, 0.1), (0.35, 0.2))})
ATOM_B = AtomSpec("B", {0: 0.0, 1: 1.3, 2: 2.45},
                  {(0, 1): _d((0.4, -0.2), (0.1, 0.25), (0.45, 0.0)),
                   (1, 2): _d((-0.3, 0.1), (0.2, 0.2), (0.05, -0.35))})
ATOM_C = AtomSpec("C", {0: 0.0, 1: 1.1, 2: 1.9},
                  {(0, 1): _d((0.5, 0.2), (0.25, -0.1), (-0.3, 0.15)),
                   (1, 2): _d((0.1, 0.3), (-0.4, 0.05), (0.2, 0.1))})
GEOM = CavityGeometry(r=0.8, d=2.5)
#: k = 0.7 (A's 2 -> 1 transition) sits 1e-7 of pi/d inside the guard band
GUARD_GEOM = CavityGeometry(r=0.8, d=math.pi / 0.7 * (1 + 1e-7))


def _cfg(atom_a, atom_b, state_a, state_b, geom=GEOM):
    return TwoAtomConfig(atom_a, atom_b, state_a, state_b, geom, NATURAL)


CONFIGS = {
    "one-A": _cfg(ATOM_A, ATOM_B, 2, 0),
    "one-B": _cfg(ATOM_B, ATOM_A, 0, 2),
    "dissimilar": _cfg(ATOM_A, ATOM_B, 1, 1),
    "identical": _cfg(ATOM_C, ATOM_C, 1, 1),
    "guard": _cfg(ATOM_A, ATOM_B, 2, 0, GUARD_GEOM),
}
RESONANT = {
    "one-A": w_res_one_excited,
    "one-B": w_res_one_excited,
    "dissimilar": w_res_two_excited_dissimilar,
    "identical": w_res_two_excited_identical,
    "guard": w_res_one_excited,
}
FIELD = StaticField.from_cartesian(0.3, -0.5, 0.8)
GROUND = _cfg(ATOM_A, ATOM_B, 0, 0)

# EXPECTED_RESONANT: (w_a, w_b, phase_shift) and the breakdown
# (i, j, tag, k_eval, w_a, w_b, phase, skipped) of each resonant sum;
# EXPECTED_REGIME: check_perturbative_regime(config, 1e-3).ratios;
# EXPECTED_FACTORIZED and EXPECTED_STATIC: w_off_factorized(K=1) and
# w_static_full in the same layout.
EXPECTED_RESONANT = {
    'dissimilar': (
        (-0.015585700895287926, -0.013489515358019505, -0.013703869125354111),
        [
            (0, 2, 'res-2exc(i<a,j>b)', 1.0, -0.021105015525824607,
             -0.024884786956491448, -0.021105015525824607, False),
            (2, 0, 'res-2exc(i>a,j<b)', 1.3, 0.023941427881376487,
             0.009372745257204489, 0.009372745257204489, False),
            (0, 0, 'res-2exc(i<a,j<b)@k_ai', 1.0,
             -0.00023354432835987133, 0.003760580869641575,
             -0.00023354432835987133, False),
            (0, 0, 'res-2exc(i<a,j<b)@k_bj', 1.3,
             -0.018188568922479935, -0.0017380545283741222,
             -0.0017380545283741222, False),
        ]),
    'guard': (
        (-0.001558816285419464, 0.004753189610438223, -0.001558816285419464),
        [
            (0, 1, 'res-1exc', 1.7, -0.001558816285419464,
             0.004753189610438223, -0.001558816285419464, False),
            (1, 1, 'res-1exc', 0.7, 0.0, 0.0, 0.0, True),
        ]),
    'identical': (
        (0.012614508675791697, 0.012614508675791697, 0.010284447477574944),
        [
            (0, 2, 'res-identical(i!=j)', 1.1, 0.0038295319770252382,
             0.0038295319770252382, 0.002244027353456136, False),
            (0, 0, 'res-identical(i=j)', 1.1, 0.008784976698766458,
             0.008784976698766458, 0.008040420124118807, False),
        ]),
    'one-A': (
        (-0.02322922904183407, 0.006890715070658426, -0.02322922904183407),
        [
            (0, 1, 'res-1exc', 1.7, -0.013131890573608763,
             0.01705898251468341, -0.013131890573608763, False),
            (1, 1, 'res-1exc', 0.7, -0.010097338468225308,
             -0.010168267444024985, -0.010097338468225308, False),
        ]),
    'one-B': (
        (0.006890715070658426, -0.02322922904183407, -0.02322922904183407),
        [
            (0, 1, 'res-1exc', 1.7, 0.01705898251468341,
             -0.013131890573608763, -0.013131890573608763, False),
            (1, 1, 'res-1exc', 0.7, -0.010168267444024985,
             -0.010097338468225308, -0.010097338468225308, False),
        ]),
}
EXPECTED_REGIME = {
    'dissimilar': [('(i=0<a,j=2>b)', 0.006666666666666661),
        ('(i=2>a,j=0<b)', 0.0016666666666666666),
        ('(i=0<a,j=0<b)', 0.003333333333333333)],
    'guard': [('(i=0,j=1)', 0.0025000000000000005),
        ('(i=1,j=1)', 0.0016666666666666666)],
    'identical': [('(i=0,j=2)', 0.0033333333333333305)],
    'one-A': [('(i=0,j=1)', 0.0025000000000000005),
        ('(i=1,j=1)', 0.0016666666666666666)],
    'one-B': [('(i=0,j=1)', 0.0025000000000000005),
        ('(i=1,j=1)', 0.0016666666666666666)],
}
EXPECTED_FACTORIZED = {
    'dissimilar': (
        (-0.0008376745864554318, -0.0008376745864554318,
         -0.0008376745864554318),
        [
            (0, 0, 'off-factorized', 0.0, -0.00187827760856444,
             -0.00187827760856444, -0.00187827760856444, False),
            (0, 2, 'off-factorized', 0.0, 0.0012548808239632523,
             0.0012548808239632523, 0.0012548808239632523, False),
            (2, 0, 'off-factorized', 0.0, 0.0009753654767907724,
             0.0009753654767907724, 0.0009753654767907724, False),
            (2, 2, 'off-factorized', 0.0, -0.0011896432786450166,
             -0.0011896432786450166, -0.0011896432786450166, False),
        ]),
    'ground': (
        (-0.0027208351110930224, -0.0027208351110930224,
         -0.0027208351110930224),
        [
            (1, 1, 'off-factorized', 0.0, -0.00187827760856444,
             -0.00187827760856444, -0.00187827760856444, False),
            (2, 1, 'off-factorized', 0.0, -0.0008425575025285826,
             -0.0008425575025285826, -0.0008425575025285826, False),
        ]),
}
EXPECTED_STATIC = {
    'dissimilar': (
        (0.010961232055774048, 0.010961232055774048, 0.010961232055774048),
        [
            (0, 0, 'static', 0.0, 0.01284809518321081,
             0.01284809518321081, 0.01284809518321081, False),
            (0, 2, 'static', 0.0, -0.005560172426989309,
             -0.005560172426989309, -0.005560172426989309, False),
            (2, 0, 'static', 0.0, 0.011051516569153107,
             0.011051516569153107, 0.011051516569153107, False),
            (2, 2, 'static', 0.0, -0.00737820726960056,
             -0.00737820726960056, -0.00737820726960056, False),
        ]),
    'ground': (
        (0.012831821769716081, 0.012831821769716081, 0.012831821769716081),
        [
            (1, 1, 'static', 0.0, 0.01284809518321081,
             0.01284809518321081, 0.01284809518321081, False),
            (2, 1, 'static', 0.0, -1.6273413494728734e-05,
             -1.6273413494728734e-05, -1.6273413494728734e-05, False),
        ]),
}


def _close(got, want):
    assert abs(got - want) <= REL * abs(want), (got, want)


def _snapshot(res):
    return ((res.w_a, res.w_b, res.phase_shift),
            [(c.i, c.j, c.tag, c.k_eval, c.w_a, c.w_b, c.phase, c.skipped)
             for c in res.breakdown])


def _compare_energy(got, want):
    (totals, entries), (want_totals, want_entries) = got, want
    for g, w in zip(totals, want_totals):
        _close(g, w)
    assert len(entries) == len(want_entries)
    for g, w in zip(entries, want_entries):
        assert g[:3] == w[:3] and g[7] == w[7]
        for gv, wv in zip(g[3:7], w[3:7]):
            _close(gv, wv)


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_resonant_breakdown_is_pinned(name):
    got = _snapshot(RESONANT[name](CONFIGS[name]))
    _compare_energy(got, EXPECTED_RESONANT[name])


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_regime_report_is_pinned(name):
    report = check_perturbative_regime(CONFIGS[name], 1e-3)
    want = EXPECTED_REGIME[name]
    assert [n for n, _ in report.ratios] == [n for n, _ in want]
    for (_, g), (_, w) in zip(report.ratios, want):
        _close(g, w)


@pytest.mark.parametrize("name", ["ground", "dissimilar"])
def test_factorized_and_static_pairings_are_pinned(name):
    cfg = GROUND if name == "ground" else CONFIGS[name]
    _compare_energy(_snapshot(w_off_factorized(cfg, K=1.0)),
                    EXPECTED_FACTORIZED[name])
    _compare_energy(_snapshot(w_static_full(cfg, FIELD)),
                    EXPECTED_STATIC[name])
