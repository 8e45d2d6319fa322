"""Tests for self-scaling."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tailcluster.core import DataMatrix, ValidationError
from tailcluster.order_stats import NonpositiveThreshold, self_scale


class TestSelfScale:
    def test_hand_example(self):
        data = DataMatrix(values=np.array([[1, 2, 3, 4, 5, 100.0]]).T)
        scaled = self_scale(data, k_star=4)
        # 5th largest of the column is 2
        assert scaled[:, 0].tolist() == [50.0, 2.5, 2.0, 1.5, 1.0, 0.5]
        assert scaled[4].tolist() == [1.0]

    def test_identity_scaling(self):
        data = DataMatrix(values=np.ones((5, 2)))
        scaled = self_scale(data, k_star=2)
        assert np.all(scaled == 1.0)
        assert scaled[2].tolist() == [1.0, 1.0]

    def test_k_star_range(self):
        data = DataMatrix(values=np.ones((5, 2)))
        with pytest.raises(ValidationError):
            self_scale(data, k_star=0)
        with pytest.raises(ValidationError):
            self_scale(data, k_star=5)

    def test_nonpositive_threshold_names_column(self):
        values = np.column_stack([np.arange(1.0, 7.0), [-3, -2, -1, 0, 1, 2.0]])
        data = DataMatrix(values=values)
        with pytest.raises(NonpositiveThreshold) as exc:
            self_scale(data, k_star=2)
        assert exc.value.column == "V2"
        assert exc.value.value == 0.0
        assert "column V2" in str(exc.value)

    def test_equivariance_power_of_two_exact(self):
        # power-of-two scales are exact in binary floating point, so the
        # scaled column must be bit-for-bit unchanged
        rng = np.random.default_rng(5)
        values = rng.pareto(1.0, size=(40, 3)) + 0.1
        data = DataMatrix(values=values)
        scaled = self_scale(data, k_star=10)
        c = np.array([0.25, 8.0, 1024.0])
        rescaled = self_scale(DataMatrix(values=values * c), k_star=10)
        assert np.array_equal(scaled, rescaled)

    @given(
        seed=st.integers(0, 10**6),
        scale=st.floats(0.001, 1000.0, allow_nan=False),
    )
    @settings(max_examples=100)
    def test_equivariance_general_scale(self, seed, scale):
        rng = np.random.default_rng(seed)
        values = rng.pareto(1.0, size=(30, 2)) + 0.1
        scaled = self_scale(DataMatrix(values=values), k_star=7)
        rescaled = self_scale(DataMatrix(values=values * scale), k_star=7)
        # a general scale rounds the numerator and denominator once each
        assert np.allclose(scaled, rescaled, rtol=1e-14)

