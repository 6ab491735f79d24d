"""Two-atom configurations: levels, transition dipoles, validation, and
the channel tables that the energy sums of vdw.py and static.py evaluate.

Spherical dipole components follow the convention

    d0 = dz,   d+ = (dx + i dy)/sqrt(2),   d- = (dx - i dy)/sqrt(2),

under which the scalar contraction through the cavity tensor reads

    x . G . y = G_00 x0 y0 + G_pp (x+ y+ + x- y-) + G_pm (x+ y- + x- y+),

i.e. the (+-) component couples d+ with d-.  A stored matrix element
triplet D(i,j) = <i|d|j> determines the reversed one by conjugate-swap:
D(j,i) = (conj d0, conj d-, conj d+).

Input is a declarative JSON document; frequencies are accepted in rad/s,
Hz or eV with explicit unit tags and normalized to rad/s on load, dipole
moments are in C*m, lengths carry an explicit length_unit.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError, DegenerateError, DomainError
from .green import CavityGeometry

__all__ = [
    "PhysicalConstants",
    "CONSTANTS",
    "AtomSpec",
    "TwoAtomConfig",
    "ValidationReport",
    "RegimeReport",
    "ResonantChannel",
    "resonant_channels",
    "coupled_channels",
    "spherical_from_cartesian",
    "swap_conj",
    "validate",
    "check_perturbative_regime",
    "static_polarisability",
    "load_two_atom_config",
]


@dataclass(frozen=True)
class PhysicalConstants:
    """CODATA values; override for natural-unit desk calculations."""

    hbar: float = 1.054571817e-34      # J s
    epsilon0: float = 8.8541878128e-12  # F/m
    c: float = 299792458.0             # m/s


CONSTANTS = PhysicalConstants()

_E_CHARGE = 1.602176634e-19  # C, for eV -> rad/s conversion

_OMEGA_UNITS = {
    "rad/s": lambda v: v,
    "Hz": lambda v: 2 * math.pi * v,
    "eV": lambda v: v * _E_CHARGE / CONSTANTS.hbar,
}

_LENGTH_UNITS = {"m": 1.0, "cm": 1e-2, "mm": 1e-3, "um": 1e-6, "µm": 1e-6,
                 "nm": 1e-9}


def spherical_from_cartesian(dx, dy, dz):
    """(d0, d+, d-) from Cartesian components (complex allowed)."""
    return np.array([dz, (dx + 1j * dy) / math.sqrt(2),
                     (dx - 1j * dy) / math.sqrt(2)], dtype=complex)


def swap_conj(v):
    """Triplet of the reversed matrix element: conjugate and swap +/-."""
    v = np.asarray(v, dtype=complex)
    return np.array([np.conj(v[0]), np.conj(v[2]), np.conj(v[1])])


@dataclass
class AtomSpec:
    """Levels (index -> angular frequency, rad/s) and dipole matrix elements.

    ``dipoles`` maps ordered pairs (i, j) to the spherical triplet
    <i|d|j>; the reverse element is derived by conjugate-swap when not
    stored explicitly.  Treated as immutable after construction.
    """

    label: str
    levels: dict[int, float]
    dipoles: dict[tuple[int, int], np.ndarray] = field(default_factory=dict)

    def omega(self, i: int) -> float:
        try:
            return self.levels[i]
        except KeyError:
            raise ConfigError(f"atom {self.label!r}: no level {i}") from None

    def dipole(self, i: int, j: int):
        """<i|d|j> triplet, or None when the pair is uncoupled."""
        if (i, j) in self.dipoles:
            return np.asarray(self.dipoles[(i, j)], dtype=complex)
        if (j, i) in self.dipoles:
            return swap_conj(self.dipoles[(j, i)])
        return None

    def coupled_to(self, state: int) -> list[int]:
        out = {j for (i, j) in self.dipoles if i == state}
        out |= {i for (i, j) in self.dipoles if j == state}
        out.discard(state)
        return sorted(out)

    def violations(self) -> list[str]:
        """Invariant violations (report style, never raises)."""
        bad = []
        idx = sorted(self.levels)
        omegas = [self.levels[i] for i in idx]
        if any(o2 < o1 for o1, o2 in zip(omegas, omegas[1:])):
            bad.append(f"atom {self.label!r}: level frequencies must be "
                       "non-decreasing with index")
        for (i, j), v in self.dipoles.items():
            if i == j:
                bad.append(f"atom {self.label!r}: self-dipole ({i},{i})")
            if i not in self.levels or j not in self.levels:
                bad.append(f"atom {self.label!r}: dipole ({i},{j}) refers "
                           "to a missing level")
            if (j, i) in self.dipoles and not np.allclose(
                    np.asarray(self.dipoles[(j, i)], dtype=complex),
                    swap_conj(v), rtol=1e-10, atol=0):
                bad.append(f"atom {self.label!r}: dipole ({j},{i}) is not "
                           f"the conjugate-swap image of ({i},{j})")
        return bad

    def physically_same(self, other: "AtomSpec") -> bool:
        if sorted(self.levels) != sorted(other.levels):
            return False
        if any(not math.isclose(self.levels[i], other.levels[i],
                                rel_tol=1e-12, abs_tol=0.0)
               for i in self.levels):
            return False
        keys = set(self.dipoles) | set(other.dipoles)
        for key in keys:
            a = self.dipole(*key)
            b = other.dipole(*key)
            if a is None or b is None:
                return False
            if not np.allclose(a, b, rtol=1e-12, atol=0):
                return False
        return True


@dataclass
class TwoAtomConfig:
    atom_a: AtomSpec
    atom_b: AtomSpec
    state_a: int
    state_b: int
    geometry: CavityGeometry
    constants: PhysicalConstants = CONSTANTS

    def scenario(self) -> str:
        a, b = self.state_a, self.state_b
        if a == 0 and b == 0:
            return "both-ground"
        if (a > 0) != (b > 0):
            return "one-excited"
        if a == b and self.atom_a.physically_same(self.atom_b):
            return "both-excited-identical"
        return "both-excited-dissimilar"

    def transition(self, atom: AtomSpec, i: int, state: int) -> float:
        """Signed angular frequency omega_i - omega_state."""
        return atom.omega(i) - atom.omega(state)


@dataclass
class ValidationReport:
    violations: list[str]
    scenario: str | None
    downward_channels_a: list[int]
    downward_channels_b: list[int]

    @property
    def ok(self) -> bool:
        return not self.violations


def validate(config: TwoAtomConfig) -> ValidationReport:
    """Report invariant violations and classify the scenario."""
    bad = config.atom_a.violations() + config.atom_b.violations()
    for name, atom, state in (("state_a", config.atom_a, config.state_a),
                              ("state_b", config.atom_b, config.state_b)):
        if state not in atom.levels:
            bad.append(f"{name}={state} is not a level of atom "
                       f"{atom.label!r}")
    scenario = None
    down_a = down_b = []
    if not bad:
        scenario = config.scenario()
        down_a = [i for i in config.atom_a.coupled_to(config.state_a)
                  if i < config.state_a]
        down_b = [j for j in config.atom_b.coupled_to(config.state_b)
                  if j < config.state_b]
    return ValidationReport(bad, scenario, down_a, down_b)


@dataclass
class RegimeReport:
    ratios: list[tuple[str, float]]     # (channel description, ratio)
    threshold: float
    flagged: list[str]

    @property
    def ok(self) -> bool:
        return not self.flagged


@dataclass(frozen=True)
class ResonantChannel:
    """One term (i, j) of a resonant energy sum.

    The term is evaluated at k = omega_k/c with the Green tensor
    contractions R = x.Re G.y and I = x.Im G.y and the kernel

        kern = 2 omega_other k^4 / (eps0^2 hbar (omega_k^2 - omega_other^2)):

    w_a takes sign kern (|R|^2 + im_sign_a |I|^2), w_b the opposite Im
    sign, and the phase shift sign kern (|R|^2 - |I|^2).  ``omega_other``
    is None for the identical-atom double pole i = j, whose term carries
    d/dk[k^2 Re G] instead.  ``name`` labels the channel in the regime
    report; it is None for the double pole (no detuning) and for the
    second evaluation of a channel whose detuning is already listed.
    """

    i: int
    j: int
    tag: str
    name: str | None
    omega_k: float
    omega_other: float | None
    x: np.ndarray
    y: np.ndarray
    sign: float = 1.0
    im_sign_a: float = -1.0


def resonant_channels(config: TwoAtomConfig, formula: str):
    """Yield the channel table of one resonant formula, in evaluation order.

    ``formula`` is a scenario name: "one-excited" (either atom excited),
    "both-excited-dissimilar" (atom A excited; B may be in its ground
    state, where the j < b families are empty) or
    "both-excited-identical".  "both-ground" has no resonant channel.
    """
    a, b = config.state_a, config.state_b
    A, B = config.atom_a, config.atom_b

    def below(atom, state):
        return [i for i in atom.coupled_to(state) if i < state]

    def above(atom, state):
        return [i for i in atom.coupled_to(state) if i > state]

    if formula == "one-excited":
        # the excited atom's downward channels against every transition of
        # the ground atom; with B excited the Im signs of w_a, w_b swap
        im_sign_a = -1.0
        if b > 0:
            A, B, a, im_sign_a = B, A, b, 1.0
        for i in below(A, a):
            omega_ai = A.omega(a) - A.omega(i)
            for j in B.coupled_to(0):
                yield ResonantChannel(
                    i, j, "res-1exc", f"(i={i},j={j})", omega_ai,
                    B.omega(j) - B.omega(0), A.dipole(a, i), B.dipole(0, j),
                    im_sign_a=im_sign_a)
    elif formula == "both-excited-dissimilar":
        for i in below(A, a):
            for j in above(B, b):
                yield ResonantChannel(
                    i, j, "res-2exc(i<a,j>b)", f"(i={i}<a,j={j}>b)",
                    A.omega(a) - A.omega(i), B.omega(j) - B.omega(b),
                    A.dipole(a, i), B.dipole(b, j))
        for i in above(A, a):
            for j in below(B, b):
                yield ResonantChannel(
                    i, j, "res-2exc(i>a,j<b)", f"(i={i}>a,j={j}<b)",
                    B.omega(b) - B.omega(j), A.omega(i) - A.omega(a),
                    B.dipole(b, j), A.dipole(a, i), im_sign_a=1.0)
        for i in below(A, a):
            omega_ai = A.omega(a) - A.omega(i)
            for j in below(B, b):
                omega_bj = B.omega(b) - B.omega(j)
                yield ResonantChannel(
                    i, j, "res-2exc(i<a,j<b)@k_ai", f"(i={i}<a,j={j}<b)",
                    omega_ai, omega_bj, A.dipole(a, i), B.dipole(j, b),
                    sign=-1.0)
                yield ResonantChannel(
                    i, j, "res-2exc(i<a,j<b)@k_bj", None, omega_bj, omega_ai,
                    B.dipole(b, j), A.dipole(a, i), sign=-1.0, im_sign_a=1.0)
    elif formula == "both-excited-identical":
        # i != j: a pure ReRe potential shared by both atoms; i = j: the
        # double pole
        for i in below(A, a):
            omega_ai = A.omega(a) - A.omega(i)
            x = A.dipole(a, i)
            for j in (j for j in A.coupled_to(a) if j != i):
                yield ResonantChannel(
                    i, j, "res-identical(i!=j)", f"(i={i},j={j})", omega_ai,
                    A.omega(j) - A.omega(a), x, A.dipole(j, a), sign=2.0,
                    im_sign_a=0.0)
            yield ResonantChannel(i, i, "res-identical(i=j)", None, omega_ai,
                                  None, x, swap_conj(x))
    elif formula != "both-ground":
        raise DomainError(f"unknown resonant formula {formula!r}")


def coupled_channels(config: TwoAtomConfig):
    """(i, j, omega_ia, omega_jb, x=<a|d|i>, y=<j|d|b>) for every coupled
    pair of transitions, the channels of the off-resonant and
    electrostatic sums."""
    a, b = config.state_a, config.state_b
    A, B = config.atom_a, config.atom_b
    channels = []
    for i in A.coupled_to(a):
        omega_ia = A.omega(i) - A.omega(a)
        if omega_ia == 0.0:
            raise DegenerateError(
                f"omega_ia = 0 for channel i={i} (atom {A.label!r})")
        for j in B.coupled_to(b):
            omega_jb = B.omega(j) - B.omega(b)
            if omega_jb == 0.0:
                raise DegenerateError(
                    f"omega_jb = 0 for channel j={j} (atom {B.label!r})")
            channels.append((i, j, omega_ia, omega_jb,
                             A.dipole(a, i), B.dipole(j, b)))
    return channels


def check_perturbative_regime(config: TwoAtomConfig, w_estimate: float,
                              ratio_threshold: float = 0.1) -> RegimeReport:
    """Ratio |W| / (hbar |detuning|) per resonant channel.

    Channels with ratio above ``ratio_threshold`` are flagged; an exactly
    vanishing detuning in a channel required by the scenario formulas
    raises DegenerateError.
    """
    hbar = config.constants.hbar
    ratios = []
    flagged = []
    for ch in resonant_channels(config, config.scenario()):
        if ch.name is None:
            continue
        name, det = ch.name, ch.omega_k - ch.omega_other
        if det == 0.0:
            raise DegenerateError(
                f"channel {name}: zero detuning, perturbative formulas "
                "do not apply")
        ratio = abs(w_estimate) / (hbar * abs(det))
        ratios.append((name, ratio))
        if ratio > ratio_threshold:
            flagged.append(name)
    return RegimeReport(ratios, ratio_threshold, flagged)


def static_polarisability(atom: AtomSpec, state: int,
                          hbar: float = CONSTANTS.hbar) -> float:
    """Sum-over-states static polarisability of one atom (C m^2/V).

    alpha(0) = (2/hbar) sum_i |<state|d|i>|^2 / omega_{i,state}
    """
    if state not in atom.levels:
        raise ConfigError(f"atom {atom.label!r}: no level {state}")
    total = 0.0
    for i in atom.coupled_to(state):
        omega = atom.omega(i) - atom.omega(state)
        if omega == 0.0:
            raise DegenerateError(
                f"atom {atom.label!r}: zero transition frequency "
                f"({state}<->{i})")
        d = atom.dipole(state, i)
        total += float(np.sum(np.abs(d) ** 2)) / omega
    return 2.0 * total / hbar


# ---------------------------------------------------------------------------
# JSON input
# ---------------------------------------------------------------------------

def _complex_entry(pair, where):
    if (not isinstance(pair, (list, tuple))) or len(pair) != 2:
        raise ConfigError(f"{where}: expected [re, im], got {pair!r}")
    return complex(float(pair[0]), float(pair[1]))


def _parse_dipole(entry, label):
    where = f"atom {label!r} dipole"
    try:
        i, j = int(entry["from"]), int(entry["to"])
    except KeyError as exc:
        raise ConfigError(f"{where}: missing {exc}") from None
    spherical_keys = {"d0", "dplus", "dminus"}
    cartesian_keys = {"dx", "dy", "dz"}
    present = set(entry) & (spherical_keys | cartesian_keys)
    if present and present <= spherical_keys:
        v = np.array([_complex_entry(entry.get("d0", [0, 0]), where),
                      _complex_entry(entry.get("dplus", [0, 0]), where),
                      _complex_entry(entry.get("dminus", [0, 0]), where)])
    elif present and present <= cartesian_keys:
        v = spherical_from_cartesian(
            _complex_entry(entry.get("dx", [0, 0]), where),
            _complex_entry(entry.get("dy", [0, 0]), where),
            _complex_entry(entry.get("dz", [0, 0]), where))
    else:
        raise ConfigError(
            f"{where}: give either d0/dplus/dminus or dx/dy/dz")
    return (i, j), v


def _parse_atom(obj) -> AtomSpec:
    try:
        label = str(obj["label"])
        levels_raw = obj["levels"]
    except (KeyError, TypeError) as exc:
        raise ConfigError(f"atom entry malformed: {exc}") from None
    levels = {}
    for lv in levels_raw:
        unit = lv.get("unit", "rad/s")
        if unit not in _OMEGA_UNITS:
            raise ConfigError(f"atom {label!r}: unknown frequency unit "
                              f"{unit!r} (use rad/s, Hz or eV)")
        idx = int(lv["index"])
        if idx in levels:
            raise ConfigError(f"atom {label!r}: duplicate level index {idx}")
        levels[idx] = _OMEGA_UNITS[unit](float(lv["omega"]))
    dipoles = {}
    for entry in obj.get("dipoles", []):
        key, v = _parse_dipole(entry, label)
        dipoles[key] = v
    return AtomSpec(label=label, levels=levels, dipoles=dipoles)


def load_two_atom_config(source,
                         constants: PhysicalConstants = CONSTANTS,
                         ) -> TwoAtomConfig:
    """Build a TwoAtomConfig from a JSON file path, JSON text, or dict."""
    if isinstance(source, (str, Path)):
        path = Path(source)
        if path.exists():
            text = path.read_text(encoding="utf-8")
        else:
            text = str(source)
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"malformed JSON: {exc}") from None
    else:
        obj = source
    if not isinstance(obj, dict):
        raise ConfigError("top-level JSON value must be an object")
    try:
        atoms = [_parse_atom(a) for a in obj["atoms"]]
        cfg = obj["config"]
    except KeyError as exc:
        raise ConfigError(f"missing top-level key {exc}") from None
    if len(atoms) == 1:
        atoms = [atoms[0], atoms[0]]
    if len(atoms) != 2:
        raise ConfigError(f"need 1 or 2 atoms, got {len(atoms)}")
    unit = cfg.get("length_unit", "m")
    if unit not in _LENGTH_UNITS:
        raise ConfigError(f"unknown length_unit {unit!r}")
    scale = _LENGTH_UNITS[unit]
    try:
        geometry = CavityGeometry(r=float(cfg["r"]) * scale,
                                  d=float(cfg["d"]) * scale)
        state_a = int(cfg["state_a"])
        state_b = int(cfg["state_b"])
    except KeyError as exc:
        raise ConfigError(f"config section missing {exc}") from None
    config = TwoAtomConfig(atom_a=atoms[0], atom_b=atoms[1],
                           state_a=state_a, state_b=state_b,
                           geometry=geometry, constants=constants)
    report = validate(config)
    if not report.ok:
        raise ConfigError("; ".join(report.violations))
    return config
