"""Adaptive 1-D quadrature and series services.

All integrands are evaluated in batches: ``f`` receives a numpy array of
nodes and must return either a matching 1-D array (scalar integrand) or a
2-D array of shape ``(n_nodes, n_outputs)`` (simultaneous integration of
several components sharing the expensive part of the evaluation).  Complex
values are supported.

The basic rule is Gauss-Kronrod G7/K15 with global bisection of the worst
panels.  Oscillatory integrands are handled by seeding the initial panel
grid at the known oscillation wavelength; semi-infinite integrals with an
exponential envelope are cut where the envelope bound drops below the
absolute tolerance.  A Wynn epsilon accelerator is provided for slowly
convergent (quasi-)alternating series such as reflection sums and the
oscillatory Bessel tails of the Kramers-Kronig transform.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError

__all__ = [
    "QuadSpec",
    "SeriesSpec",
    "integrate_finite",
    "integrate_semi_infinite_damped",
    "wynn_epsilon",
    "integrate_oscillatory_tail",
]


@dataclass(frozen=True)
class QuadSpec:
    """Tolerance contract for the adaptive integrators."""

    rel_tol: float = 1e-9
    abs_tol: float = 1e-12
    max_subdivisions: int = 2000

    def __post_init__(self):
        if self.rel_tol <= 0 or self.abs_tol <= 0:
            raise ValueError("tolerances must be positive")
        if self.max_subdivisions < 1:
            raise ValueError("max_subdivisions must be >= 1")


@dataclass(frozen=True)
class SeriesSpec:
    """Term cap of the cavity mode sums.

    The mode sums fix their term count in advance, so that the remainder
    is below e^{-40} of the first closed mode's term (see
    ``cavdip.green``); ``n_max`` caps the terms of each mode family and
    ConvergenceError is raised above it.  ``rel_tol`` is no longer read;
    it is kept so that callers that pass it keep working.
    """

    rel_tol: float = 1e-10
    n_max: int = 10**6

    def __post_init__(self):
        if self.n_max < 1:
            raise ValueError("n_max must be >= 1")


# G7/K15 nodes and weights on [-1, 1].  The 7 Gauss nodes are a subset of
# the 15 Kronrod nodes; the difference K15-G7 provides the error estimate.
_KRONROD_X = np.array([
    -0.991455371120813, -0.949107912342759, -0.864864423359769,
    -0.741531185599394, -0.586087235467691, -0.405845151377397,
    -0.207784955007898, 0.0,
    0.207784955007898, 0.405845151377397, 0.586087235467691,
    0.741531185599394, 0.864864423359769, 0.949107912342759,
    0.991455371120813,
])
_KRONROD_W = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728,
    0.204432940075298, 0.190350578064785, 0.169004726639267,
    0.140653259715525, 0.104790010322250, 0.063092092629979,
    0.022935322010529,
])
_GAUSS_W = np.array([
    0.0, 0.129484966168870, 0.0, 0.279705391489277, 0.0,
    0.381830050505119, 0.0, 0.417959183673469, 0.0,
    0.381830050505119, 0.0, 0.279705391489277, 0.0,
    0.129484966168870, 0.0,
])


def _eval_panels(f, lo, hi):
    """Evaluate K15/G7 on a batch of panels with a single call to ``f``.

    Returns (I_k15, err) where both have shape (n_panels, n_outputs); the
    error is the K15-G7 difference magnitude summed over nodes.
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    nodes = mid[:, None] + half[:, None] * _KRONROD_X[None, :]
    vals = np.asarray(f(nodes.ravel()))
    if vals.ndim == 1:
        vals = vals[:, None]
    n_out = vals.shape[1]
    vals = vals.reshape(len(lo), _KRONROD_X.size, n_out)
    i_k = np.einsum("pnj,n->pj", vals, _KRONROD_W) * half[:, None]
    i_g = np.einsum("pnj,n->pj", vals, _GAUSS_W) * half[:, None]
    err = np.abs(i_k - i_g).max(axis=1)
    return i_k, err


def _as_breakpoints(a, b, points):
    pts = [a, b]
    if points is not None:
        pts.extend(p for p in points if a < p < b)
    pts = np.unique(np.asarray(pts, dtype=float))
    return pts


def integrate_finite(f, a, b, spec=QuadSpec(), points=None):
    """Adaptive Gauss-Kronrod integral of ``f`` over [a, b].

    Parameters
    ----------
    f : callable
        Batched integrand, ``f(x: ndarray) -> ndarray`` of shape ``(n,)``
        or ``(n, m)``.
    points : sequence of float, optional
        Interior breakpoints seeding the initial panels (oscillation
        wavelength, known kinks, ...).

    Returns
    -------
    (value, error_estimate)
        ``value`` is a scalar for scalar integrands, else an array of the
        per-output integrals.  ``error_estimate`` bounds the worst output.

    Integrable endpoint singularities are handled by bisection provided
    the integrand is evaluated in a cancellation-free form near the
    singular point (write 1/sqrt((1-q)(1+q)), not 1/sqrt(1-q^2)).

    Raises
    ------
    ConvergenceError
        if the panel budget is exhausted above tolerance.
    """
    if not (a < b):
        raise ValueError("integrate_finite requires a < b")
    pts = _as_breakpoints(a, b, points)
    if len(pts) - 1 > spec.max_subdivisions:
        raise ConvergenceError(
            f"initial panel grid ({len(pts) - 1}) exceeds "
            f"max_subdivisions={spec.max_subdivisions}"
        )
    # heap of (-err, counter, lo, hi, value_row)
    heap = []
    count = 0

    def splittable(item):
        lo, hi = item[2], item[3]
        return (hi - lo) > 64 * np.finfo(float).eps * max(abs(lo), abs(hi),
                                                          1.0)

    def push(lo, hi, val, diff):
        nonlocal count
        if not splittable((None, None, lo, hi)):
            # width at float resolution: node positions round, so neither
            # rule is trustworthy; the panel's own weight bounds the error
            diff = max(diff, 0.1 * float(np.max(np.abs(val))))
        heapq.heappush(heap, (-diff, count, lo, hi, val))
        count += 1

    def split_round(n_max_split):
        """Bisect up to n_max_split of the worst splittable panels."""
        chosen, skipped = [], []
        while heap and len(chosen) < n_max_split:
            item = heapq.heappop(heap)
            (chosen if splittable(item) else skipped).append(item)
        for item in skipped:
            heapq.heappush(heap, item)
        if not chosen:
            return 0
        lo = np.array([w[2] for w in chosen])
        hi = np.array([w[3] for w in chosen])
        mid = 0.5 * (lo + hi)
        new_lo = np.concatenate([lo, mid])
        new_hi = np.concatenate([mid, hi])
        vals, errs = _eval_panels(f, new_lo, new_hi)
        for j in range(len(new_lo)):
            push(new_lo[j], new_hi[j], vals[j], errs[j])
        return len(chosen)

    vals, errs = _eval_panels(f, pts[:-1], pts[1:])
    for j in range(len(pts) - 1):
        push(pts[j], pts[j + 1], vals[j], errs[j])
    n_panels = len(heap)

    while True:
        total = np.sum([item[4] for item in heap], axis=0)
        err_total = -sum(item[0] for item in heap)
        tol = max(spec.abs_tol, spec.rel_tol * float(np.max(np.abs(total))))
        if err_total <= tol:
            break
        # error that further bisection could still reduce
        err_reducible = -sum(item[0] for item in heap if splittable(item))
        if err_reducible <= 0.5 * tol:
            break  # the rest is float-resolution irreducible; est says so
        if n_panels >= spec.max_subdivisions:
            raise ConvergenceError(
                f"quadrature error {err_total:.3e} above tolerance {tol:.3e} "
                f"after {n_panels} panels"
            )
        n_new = split_round(min(16, max(1, spec.max_subdivisions - n_panels)))
        if n_new == 0:
            break
        n_panels += n_new

    # one more refinement round of the worst panels: the resulting value
    # shift is a two-level error measure that stays honest on endpoint
    # singularities, where plain K15-G7 differences under-report
    if n_panels < spec.max_subdivisions and len(heap) > 0:
        if split_round(min(8, spec.max_subdivisions - n_panels)) > 0:
            refined = np.sum([item[4] for item in heap], axis=0)
            err_left = -sum(item[0] for item in heap)
            err_total = max(err_left,
                            3.0 * float(np.max(np.abs(refined - total))))
            total = refined

    if total.shape == (1,):
        val = total[0]
        return (val.real if abs(val.imag) == 0.0 else val), err_total
    return total, err_total


def exponential_cutoff(a, damping_scale, abs_tol, power_growth=0):
    """Upper limit where ``x^p * exp(-s*(x-a))`` drops below abs_tol/10."""
    if damping_scale <= 0:
        raise ValueError("damping_scale must be positive")
    span = math.log(10.0 / abs_tol) / damping_scale
    for _ in range(4):
        # fixed-point refinement for the polynomial prefactor
        span = (math.log(10.0 / abs_tol)
                + power_growth * math.log1p(abs(a) + span)) / damping_scale
    return a + max(span, 1.0 / damping_scale)


def integrate_semi_infinite_damped(f, a, damping_scale, spec=QuadSpec(),
                                   oscillation_wavelength=None,
                                   power_growth=0):
    """Integral of ``f`` over [a, inf) for exponentially damped integrands.

    The tail is truncated where the envelope ``x^p exp(-s(x-a))`` falls
    below ``abs_tol/10``; the remaining finite interval goes through
    :func:`integrate_finite` with panels seeded at half the oscillation
    wavelength (when given) and at the damping scale.
    """
    b = exponential_cutoff(a, damping_scale, spec.abs_tol, power_growth)
    h = 2.0 / damping_scale
    if oscillation_wavelength is not None and oscillation_wavelength > 0:
        h = min(h, 0.5 * oscillation_wavelength)
    # leave half the panel budget for adaptive refinement
    h = max(h, 2.0 * (b - a) / spec.max_subdivisions)
    points = np.arange(a + h, b, h)
    value, err = integrate_finite(f, a, b, spec, points=points)
    # leading tail chunk beyond the cutoff: added to the value, and its
    # magnitude bounds the remaining tail in the error estimate
    n_tail = max(2, int(math.ceil(4.0 / (damping_scale * h))))
    lo = b + h * np.arange(n_tail)
    tail_vals, _ = _eval_panels(f, lo, lo + h)
    tail = tail_vals.sum(axis=0)
    tail_mag = float(np.max(np.abs(tail)))
    value = value + (tail[0] if np.ndim(value) == 0 else tail)
    return value, err + tail_mag


def wynn_epsilon(partial_sums):
    """Wynn epsilon acceleration of a sequence of partial sums.

    Works for linearly convergent and (quasi-)alternating sequences,
    including unimodular term ratios exp(i*phi).  Returns
    ``(limit_estimate, error_estimate)`` where the error estimate is the
    spread of the last even-column entries.
    """
    s = np.asarray(partial_sums, dtype=complex)
    n = len(s)
    if n < 3:
        return s[-1], np.inf
    # stagnated sequence: already converged, acceleration would divide by ~0
    tail_move = np.max(np.abs(np.diff(s[-min(5, n):])))
    if tail_move <= 1e-15 * abs(s[-1]) + 1e-300:
        val = s[-1]
        if abs(val.imag) == 0.0:
            val = val.real
        return val, tail_move
    scale = float(np.max(np.abs(s))) + 1e-300
    eps_prev = np.zeros(n + 1, dtype=complex)   # column k-1 (starts at -1)
    eps_curr = s.copy()                         # column 0
    best = [s[-1]]
    for _ in range(n - 1):
        diff = np.diff(eps_curr)
        # singular table entry: stop here, keep candidates found so far
        if np.min(np.abs(diff)) <= 1e-300 or not np.all(np.isfinite(diff)):
            break
        eps_next = eps_prev[1:len(eps_curr)] + 1.0 / diff
        eps_prev, eps_curr = eps_curr, eps_next
        if len(eps_curr) == 0:
            break
        # even columns of the epsilon table approximate the limit
        if (n - len(eps_curr)) % 2 == 0:
            cand = eps_curr[-1]
            if np.isfinite(cand) and abs(cand) < 1e6 * scale:
                best.append(cand)
    if len(best) >= 3:
        est = best[-1]
        err = max(abs(best[-1] - best[-2]), abs(best[-2] - best[-3]))
    else:
        est = best[-1]
        err = abs(best[-1] - best[0])
    if abs(est.imag) == 0.0:
        est = est.real
    return est, err


def integrate_oscillatory_tail(f, start, half_period, spec=QuadSpec(),
                               max_chunks=120, min_chunks=12):
    """Integral of an oscillatory ``f`` over [start, inf).

    The integrand must asymptotically alternate on the given half period
    (Bessel-kernel tails).  Chunk integrals over successive half periods
    form a quasi-alternating series summed with Wynn epsilon acceleration.
    """
    if half_period <= 0:
        raise ValueError("half_period must be positive")
    chunk_vals = []
    partials = []
    total = 0.0
    lo = start + half_period * np.arange(max_chunks)
    hi = lo + half_period
    batch = 24
    for j0 in range(0, max_chunks, batch):
        j1 = min(j0 + batch, max_chunks)
        vals, _ = _eval_panels(f, lo[j0:j1], hi[j0:j1])
        for v in vals[:, 0]:
            total += v
            chunk_vals.append(v)
            partials.append(total)
        if len(partials) >= min_chunks:
            # plainly negligible tail: no acceleration needed
            recent = max(abs(c) for c in chunk_vals[-4:])
            if recent <= 0.25 * max(spec.abs_tol,
                                    spec.rel_tol * abs(total)):
                return total, 4 * recent
            est, err = wynn_epsilon(partials[-48:])
            tol = max(spec.abs_tol, spec.rel_tol * abs(est))
            if err <= tol:
                return est, err
    est, err = wynn_epsilon(partials[-48:])
    if err <= 10 * max(spec.abs_tol, spec.rel_tol * abs(est)):
        return est, err
    raise ConvergenceError(
        f"oscillatory tail not converged after {max_chunks} half periods "
        f"(residual {err:.3e})")
