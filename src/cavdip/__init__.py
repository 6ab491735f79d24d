"""cavdip: dipole-dipole interactions inside a planar reflecting cavity.

Numerical library and CLI for the electromagnetic Green tensor of a
perfectly reflecting planar cavity and the interaction energies of two
atomic dipoles at its mid-plane: van der Waals potentials (off-resonant
and resonant), wavefunction phase shifts, and the electrostatic potential
of two induced dipoles.
"""

__version__ = "0.1.0"

from .errors import (CavdipError, ConfigError, ConvergenceError,
                     DegenerateError, DerivativeMismatchError, DomainError,
                     ThresholdError)
from .quadrature import QuadSpec, SeriesSpec
from .bessel import bessel_j, bessel_k, bessel_y
from .green import (CartesianGreen, CavityGeometry, SphericalGreen,
                    check_threshold, d_dk_k2_re_green, free_space_green,
                    free_space_green_imag, green_imaginary_freq,
                    green_modesum, green_reflection_series,
                    greens_q_integral_oracle, kramers_kronig_re,
                    to_cartesian, to_spherical)
from .atoms import (AtomSpec, PhysicalConstants, TwoAtomConfig,
                    check_perturbative_regime, load_two_atom_config,
                    static_polarisability, validate)
from .vdw import (EnergyResult, PotentialTensor, v_off_dimensionless,
                  v_off_free_dimensionless, v_res_dimensionless,
                  w_off_factorized, w_off_full, w_res_one_excited,
                  w_res_two_excited_dissimilar, w_res_two_excited_identical,
                  w_resonant)
from .static import (StaticField, StaticPotentialTensor,
                     v_static_dimensionless, v_static_free, w_static_full)

__all__ = [name for name in dir() if not name.startswith("_")]
