"""Bessel kernels J0, J1, J2, Y0, Y1, K0, K1 with domain checks.

Only the orders appearing in the Green-tensor and electrostatic formulas
are exposed.  The numerical kernels are scipy.special's Cephes routines
(relative accuracy ~1e-15, well inside the 1e-12 contract); this module
adds the order/domain validation and a uniform array-friendly surface.
"""

from __future__ import annotations

import numpy as np
from scipy import special as _sp

from .errors import DomainError

__all__ = ["bessel_j", "bessel_y", "bessel_k"]

_J_FUNCS = {0: _sp.j0, 1: _sp.j1, 2: lambda x: _sp.jv(2, x)}
_Y_FUNCS = {0: _sp.y0, 1: _sp.y1}
_K_FUNCS = {0: _sp.k0, 1: _sp.k1}


def _check_order(order, allowed, kind):
    if order not in allowed:
        raise DomainError(f"bessel_{kind}: order {order!r} not in {sorted(allowed)}")


def bessel_j(order, x):
    """Bessel function of the first kind, order 0, 1 or 2, for x >= 0."""
    _check_order(order, _J_FUNCS.keys(), "j")
    x = np.asarray(x, dtype=float)
    if (x < 0).any():
        raise DomainError("bessel_j: x must be >= 0")
    out = _J_FUNCS[order](x)
    return float(out) if out.ndim == 0 else out


def bessel_y(order, x):
    """Bessel function of the second kind, order 0 or 1, for x > 0.

    Diverges logarithmically (Y0) or as -2/(pi*x) (Y1) at the origin, so
    x <= 0 raises DomainError.
    """
    _check_order(order, _Y_FUNCS.keys(), "y")
    x = np.asarray(x, dtype=float)
    if (x <= 0).any():
        raise DomainError("bessel_y: x must be > 0")
    out = _Y_FUNCS[order](x)
    return float(out) if out.ndim == 0 else out


def bessel_k(order, x):
    """Modified Bessel function of the second kind, order 0 or 1, x > 0."""
    _check_order(order, _K_FUNCS.keys(), "k")
    x = np.asarray(x, dtype=float)
    if (x <= 0).any():
        raise DomainError("bessel_k: x must be > 0")
    out = _K_FUNCS[order](x)
    return float(out) if out.ndim == 0 else out
