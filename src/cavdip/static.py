"""Electrostatic interaction of two induced dipoles in the cavity.

An external static field E0 induces dipoles alpha_A(0) E0 and
alpha_B(0) E0; their interaction is expressed through three dimensionless
modified-Bessel sums

    V00 = 4 sum_n n^2 K0(2 pi r n / d),
    Vpp = -(1/2) sum_{odd n} [n^2 K0(pi r n/d) + (2d/(pi r)) n K1(pi r n/d)],
    Vpm = -(1/2) sum_{odd n} n^2 K0(pi r n/d),

which converge to the free-space values d^3/(4 pi^2 r^3),
-3 d^3/(8 pi^2 r^3) and -d^3/(8 pi^2 r^3) as r/d -> 0.  They are the
cavity tensor of :mod:`cavdip.green` at k^2 = 0, V = (d^3/pi) k^2 G, so
they share its route: the mode sums from r/d = IMAGFREQ_SUM_MIN_R_OVER_D
up, free space plus the image sums below.  The potentials of
both atoms coincide with the phase-shift rate (no factor 1/2 here: the
calculation is first order in the coupling of each atom).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .atoms import TwoAtomConfig, coupled_channels
from .errors import ConfigError
from .green import CavityGeometry, _closed_sums
from .quadrature import SeriesSpec
from .vdw import ChannelContribution, EnergyResult

__all__ = [
    "StaticField",
    "StaticPotentialTensor",
    "v_static_dimensionless",
    "v_static_free",
    "w_static_full",
    "static_interaction_from_tensor",
]

PI = math.pi


@dataclass(frozen=True)
class StaticField:
    """Static field in spherical components (E0, E+, E-), V/m.

    Only fields equivalent to a real Cartesian vector are accepted: the
    quadratic field pairings in the interaction are unambiguous only in
    that case.
    """

    e0_spherical: tuple[complex, complex, complex]

    def __post_init__(self):
        e0, ep, em = self.e0_spherical
        if not all(np.isfinite([abs(e0), abs(ep), abs(em)])):
            raise ConfigError("static field components must be finite")
        if abs(complex(e0).imag) > 1e-12 * abs(e0) or \
                abs(np.conj(ep) - em) > 1e-12 * max(abs(ep), abs(em), 1e-300):
            raise ConfigError(
                "complex static fields are rejected: need real E0_z and "
                "E- = conj(E+)")

    @classmethod
    def from_cartesian(cls, ex: float, ey: float, ez: float) -> "StaticField":
        for name, v in (("ex", ex), ("ey", ey), ("ez", ez)):
            if isinstance(v, complex) and v.imag != 0:
                raise ConfigError(f"{name}: complex static fields are "
                                  "rejected")
        ex, ey, ez = float(ex), float(ey), float(ez)
        return cls((ez, (ex + 1j * ey) / math.sqrt(2),
                    (ex - 1j * ey) / math.sqrt(2)))


@dataclass(frozen=True)
class StaticPotentialTensor:
    v00: float
    vpp: float
    vpm: float
    n_used: tuple[int, int, int]

    def as_array(self):
        return np.array([self.v00, self.vpp, self.vpm])


def v_static_free(geom: CavityGeometry) -> StaticPotentialTensor:
    """Free-space (r/d -> 0) closed forms of the three components."""
    r, d = geom.r, geom.d
    pref = d**3 / (PI * PI * r**3)
    return StaticPotentialTensor(v00=pref / 4, vpp=-3 * pref / 8,
                                 vpm=-pref / 8, n_used=(0, 0, 0))


def v_static_dimensionless(geom: CavityGeometry,
                           spec: SeriesSpec = SeriesSpec(),
                           ) -> StaticPotentialTensor:
    """Dimensionless electrostatic tensor, (d^3/pi) k^2 G at k^2 = 0 from
    :func:`cavdip.green._closed_sums`; ``n_used``, the same for all three
    components, is its count of modes or images, and of ``spec`` only the
    ``n_max`` cap is read."""
    sums, n = _closed_sums(geom.r, geom.d, np.zeros(1), n_max=spec.n_max)
    vpm, vpp, v00 = (geom.d**3 / PI * sums[:, 0]).tolist()
    return StaticPotentialTensor(v00, vpp, vpm, (int(n[0]),) * 3)


def static_interaction_from_tensor(config: TwoAtomConfig, field: StaticField,
                                   tensor: StaticPotentialTensor,
                                   ) -> EnergyResult:
    """Assemble the dimensional interaction from a given tensor.

    V_AB = 4 pi/(eps0 hbar^2 d^3) sum_ij [ ... ] / (w_ia w_jb)

    with the spherical pairings of |<i|d|a>|^2, |<j|d|b>|^2 and the field
    quadratics; both potentials and the phase shift coincide.
    """
    cn = config.constants
    e0, ep, em = field.e0_spherical
    e2_0 = abs(e0) ** 2
    e2_p = abs(ep) ** 2
    e2_m = abs(em) ** 2
    e2_x = abs(ep) * abs(em)
    pref = 4 * PI / (cn.epsilon0 * cn.hbar**2 * config.geometry.d**3)
    total = 0.0
    breakdown = []
    for i, j, omega_ia, omega_jb, x, y in coupled_channels(config):
        # |<i|d^p|a>|^2 in (0,+,-) order: x = <a|d|i> with +/- swapped
        pa = np.abs(x)[[0, 2, 1]] ** 2
        pb = np.abs(y) ** 2
        phi = ((pa[1] * pb[1] * e2_p + pa[2] * pb[2] * e2_m) * tensor.vpp
               + pa[0] * pb[0] * e2_0 * tensor.v00
               + (pa[1] * pb[2] + pa[2] * pb[1]) * e2_x * tensor.vpm)
        w = pref * phi / (omega_ia * omega_jb)
        total += w
        breakdown.append(ChannelContribution(i, j, "static", 0.0, w, w, w))
    return EnergyResult(total, total, total, total / cn.hbar, "static",
                        breakdown)


def w_static_full(config: TwoAtomConfig, field: StaticField,
                  spec: SeriesSpec = SeriesSpec()) -> EnergyResult:
    """Full dimensional electrostatic potential under a static field."""
    tensor = v_static_dimensionless(config.geometry, spec)
    return static_interaction_from_tensor(config, field, tensor)
