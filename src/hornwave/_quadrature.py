"""Thin wrapper around scipy's adaptive Gauss-Kronrod quadrature.

Centralizes the error policy: a quadrature that cannot reach its tolerance
raises instead of returning silently degraded values.
"""

from __future__ import annotations

import warnings

from scipy import integrate

from .errors import QuadratureError

DEFAULT_RTOL = 1e-10
_ATOL = 1e-14


def adaptive_quad(func, a, b, *, rtol=DEFAULT_RTOL):
    """Integrate ``func`` over [a, b], raising on non-convergence.

    Returns the integral estimate.  The reported error estimate must satisfy
    ``err <= 10 * (1e-14 + rtol * |value|)``; otherwise
    :class:`QuadratureError` is raised with the achieved error attached.
    """
    if a == b:
        return 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        value, err = integrate.quad(func, a, b, epsabs=_ATOL, epsrel=rtol,
                                    limit=200)
    if err > 10.0 * (_ATOL + rtol * max(1e-300, abs(value))):
        raise QuadratureError(
            f"quadrature error {err:.3e} exceeds tolerance on [{a!r}, {b!r}]",
            achieved=err, target=rtol)
    return value
