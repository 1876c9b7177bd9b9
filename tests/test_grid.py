"""Retarded-time grids: the constructor's checks and the sample spacing."""

import math

import numpy as np
import pytest

from hornwave.errors import ConfigError
from hornwave.grid import TWO_PI, TauGrid


class TestPeriodic:
    @pytest.mark.parametrize("n", [0, 8, 100, 255])
    def test_sample_count_must_be_a_power_of_two_from_16(self, n):
        # the march's forward transform is the even-length one
        with pytest.raises(ConfigError, match=f"power-of-two sample count "
                                              f">= 16, got {n}$"):
            TauGrid(n)

    @pytest.mark.parametrize("period", [0.0, -1.0, math.inf, math.nan])
    def test_period_must_be_positive_and_finite(self, period):
        with pytest.raises(ConfigError, match="period must be positive"):
            TauGrid(16, period=period)

    def test_samples_omit_the_right_end(self):
        grid = TauGrid(16, period=7.0, start=1.0)
        assert grid.dtau == 7.0 / 16
        assert grid.tau[0] == 1.0
        assert grid.tau[-1] == 1.0 + 7.0 * 15 / 16
        assert not grid.tau.flags.writeable


class TestWindowed:
    @pytest.mark.parametrize("window", [(1.0, 1.0), (1.0, 0.0),
                                        (-math.inf, 0.0), (0.0, math.nan)])
    def test_window_must_be_finite_and_increasing(self, window):
        with pytest.raises(ConfigError, match="bad window"):
            TauGrid(16, window=window)

    def test_at_least_three_samples(self):
        with pytest.raises(ConfigError, match="at least 3 samples"):
            TauGrid.windowed(0.0, 1.0, 2)

    def test_samples_include_both_ends(self):
        grid = TauGrid.windowed(-1.0, 1.0, 5)
        np.testing.assert_array_equal(grid.tau, [-1.0, -0.5, 0.0, 0.5, 1.0])
        assert grid.dtau == 0.5

    def test_no_refinement_or_wavenumbers(self):
        grid = TauGrid.windowed(0.0, TWO_PI, 17)
        with pytest.raises(ConfigError, match="refinement is defined"):
            grid.refined(2)
        with pytest.raises(ConfigError, match="wavenumbers are defined"):
            grid.wavenumbers()
