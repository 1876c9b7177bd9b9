"""Composite Gauss-Legendre quadrature over many intervals at once.

Centralizes the error policy: a quadrature that cannot reach its tolerance
raises instead of returning silently degraded values.
"""

from __future__ import annotations

import numpy as np

from .errors import QuadratureError

_RTOL = 1e-10
_ATOL = 1e-14
_MAX_DOUBLINGS = 10        # at most 1024 panels an interval
GAUSS_NODES, GAUSS_WEIGHTS = np.polynomial.legendre.leggauss(8)


def _composite(func, a, b, panels):
    """8-point Gauss-Legendre rule on ``panels`` equal panels of each
    interval [a_i, b_i]; ``func`` sees one row of nodes per interval."""
    half = 0.5 * (b - a) / panels
    mids = a[:, None] + (2.0 * np.arange(panels) + 1.0) * half[:, None]
    nodes = (mids[:, :, None] + half[:, None, None] * GAUSS_NODES).reshape(a.size, -1)
    values = np.asarray(func(nodes), dtype=float).reshape(a.size, panels, -1)
    return half * (values @ GAUSS_WEIGHTS).sum(axis=1)


def adaptive_quad(func, a, b):
    """Integrate ``func`` over [a, b], or over every interval [a_i, b_i].

    ``a`` and ``b`` are scalars or arrays of one shape.  ``func`` takes a
    2-d array whose row i holds nodes of interval i and returns its values
    there.  Each round doubles the panels of every interval, and the
    Richardson check takes |I(2n panels) - I(n panels)| as the error of
    I(2n); the rule stops once that error is at most 1e-14 + 1e-10 |I|
    on every interval.  An interval still above its tolerance after 1024
    panels raises :class:`QuadratureError` with the largest error reached.
    Returns a float for scalar bounds, else an array of their shape.
    """
    shape = np.broadcast(a, b).shape
    lo = np.broadcast_to(np.asarray(a, dtype=float), shape).ravel()
    hi = np.broadcast_to(np.asarray(b, dtype=float), shape).ravel()
    coarse = _composite(func, lo, hi, 1)
    for doubling in range(1, _MAX_DOUBLINGS + 1):
        fine = _composite(func, lo, hi, 1 << doubling)
        err = np.abs(fine - coarse)
        if np.all(err <= _ATOL + _RTOL * np.abs(fine)):
            return fine.reshape(shape) if shape else float(fine[0])
        coarse = fine
    worst = int(np.argmax(err - _RTOL * np.abs(fine)))
    raise QuadratureError(
        f"quadrature error {err[worst]:.3e} exceeds tolerance on "
        f"[{float(lo[worst])!r}, {float(hi[worst])!r}] after "
        f"{1 << _MAX_DOUBLINGS} panels",
        achieved=float(err[worst]), target=_RTOL)
