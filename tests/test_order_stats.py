"""Tests for order-statistic selection and self-scaling."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tailcluster.core import DataMatrix, ValidationError
from tailcluster.order_stats import NonpositiveThreshold, self_scale, upper_order_stat

# ---------------------------------------------------------------------------
# full-sort reference oracle, written before the selection implementation


def sort_oracle(values, m: int) -> float:
    return float(sorted(values, reverse=True)[m])


# vectors that force duplicates alongside generic floats
dup_vectors = st.lists(
    st.one_of(
        st.integers(-5, 5).map(float),
        st.floats(-100.0, 100.0, allow_nan=False),
    ),
    min_size=1,
    max_size=60,
)


class TestUpperOrderStat:
    def test_examples(self):
        assert upper_order_stat([3.0, 1.0, 2.0], 0) == 3.0
        assert upper_order_stat([3.0, 1.0, 2.0], 2) == 1.0
        # duplicates retained: descending sort is [5, 5, 2, 1]
        assert upper_order_stat([5.0, 5.0, 1.0, 2.0], 1) == sort_oracle(
            [5.0, 5.0, 1.0, 2.0], 1
        )
        assert upper_order_stat([5.0, 5.0, 1.0, 2.0], 1) == 5.0

    def test_domain(self):
        with pytest.raises(ValidationError):
            upper_order_stat([1.0, 2.0], 2)
        with pytest.raises(ValidationError):
            upper_order_stat([1.0, 2.0], -1)
        with pytest.raises(ValidationError):
            upper_order_stat([], 0)
        with pytest.raises(ValidationError):
            upper_order_stat([[1.0, 2.0]], 0)

    @given(values=dup_vectors, data=st.data())
    @settings(max_examples=300)
    def test_matches_sort_oracle(self, values, data):
        m = data.draw(st.integers(0, len(values) - 1))
        assert upper_order_stat(values, m) == sort_oracle(values, m)

    @given(values=dup_vectors)
    def test_monotone_in_rank(self, values):
        stats = [upper_order_stat(values, m) for m in range(len(values))]
        assert all(a >= b for a, b in zip(stats, stats[1:]))


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
        assert exc.value.column == 2
        assert exc.value.value == 0.0
        assert "column 2" in str(exc.value)

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

