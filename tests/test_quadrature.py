"""The composite Gauss-Legendre quadrature against scipy's adaptive
Gauss-Kronrod rule (QUADPACK), which shares no code with it."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate

from hornwave._quadrature import adaptive_quad
from hornwave.errors import QuadratureError


def quad(func, lo, hi):
    return integrate.quad(func, lo, hi, epsabs=1e-14, epsrel=1e-11, limit=200)[0]


class TestAgainstQuad:
    @settings(max_examples=60)
    @given(growth=st.floats(-3.0, 3.0), wavenumber=st.floats(0.0, 12.0),
           pole=st.floats(0.3, 3.0),
           bounds=st.lists(st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)),
                           min_size=1, max_size=6))
    def test_every_interval_at_once(self, growth, wavenumber, pole, bounds):
        # smooth, oscillating, and peaked next to a pole off the real axis
        def f(x):
            return np.exp(growth * x) * np.cos(wavenumber * x) / (pole ** 2 + x * x)

        lo, hi = np.array(bounds).T
        got = adaptive_quad(f, lo, hi)
        want = np.array([quad(lambda x: float(f(x)), a, b) for a, b in bounds])
        assert got.shape == lo.shape
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-14)

    def test_rows_are_intervals(self):
        # a parameter per interval reaches the integrand as a column
        rates = np.array([[0.5], [1.0], [2.0]])
        got = adaptive_quad(lambda x: np.exp(-rates * x), 0.0, np.array([1.0, 2.0, 3.0]))
        want = [quad(lambda x, r=r: math.exp(-r * x), 0.0, b)
                for r, b in zip(rates[:, 0], (1.0, 2.0, 3.0))]
        np.testing.assert_allclose(got, want, rtol=1e-12)

    def test_scalar_bounds_give_a_float(self):
        got = adaptive_quad(np.sin, 0.0, math.pi)
        assert isinstance(got, float)
        assert got == pytest.approx(quad(math.sin, 0.0, math.pi), rel=1e-12)
        assert adaptive_quad(np.sin, 1.0, 1.0) == 0.0

    @pytest.mark.parametrize("func", [
        pytest.param(lambda x: np.abs(x - 1.0 / math.e), id="kink"),
        pytest.param(lambda x: np.where(x < 1.0 / math.e, 0.0, 1.0), id="jump"),
        pytest.param(lambda x: 1.0 / np.sqrt(x), id="endpoint-singularity"),
    ])
    def test_unresolved_interval_raises_with_the_error_reached(self, func):
        # QUADPACK bisects adaptively and resolves all three; uniform panels
        # converge too slowly to reach 1e-10 within 1024 panels.  The
        # smooth interval [0.5, 1] converges; the error names the other.
        want = quad(lambda x: float(func(x)), 0.0, 1.0)
        with pytest.raises(QuadratureError, match=r"\[0\.0, 1\.0\]") as err:
            adaptive_quad(func, np.array([0.5, 0.0]), 1.0)
        assert err.value.target == 1e-10
        assert err.value.achieved > 1e-14 + 1e-10 * abs(want)
