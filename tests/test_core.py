"""Tests for the shared domain types, default formulas, and metrics."""

import math
from decimal import Decimal, getcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tailcluster.core import (
    ClusterParams,
    DataMatrix,
    DimensionMismatchError,
    GroundTruth,
    TailPartition,
    ValidationError,
    accuracy,
    mse,
    resolve_params,
    truth_from_design,
)

# ---------------------------------------------------------------------------
# independent arithmetic oracle for the default-parameter formulas, written
# before the implementation: high-precision decimal evaluation of
# floor(3 * ln(p)^1.05) and floor(n0^0.98), avoiding math.log / float **


def default_k_oracle(p: int) -> int:
    getcontext().prec = 50
    lnp = Decimal(p).ln()
    return int(3 * lnp ** Decimal("1.05"))


def default_k_star_oracle(n0: int) -> int:
    getcontext().prec = 50
    return int(Decimal(n0) ** Decimal("0.98"))


def beta_oracle(k: int, k_star: int, p: int) -> float:
    return min(2.0 * k / k_star * p + 0.5, 0.9)


class TestDataMatrix:
    def test_shape_and_accessors(self):
        m = DataMatrix(values=[[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        assert (m.n, m.p) == (3, 2)
        assert m.values[:, 0].tolist() == [1.0, 3.0, 5.0]
        assert m.values[:, 1].tolist() == [2.0, 4.0, 6.0]
        assert m.label_of(1) == "V1"

    def test_labels(self):
        m = DataMatrix(values=[[1.0, 2.0], [3.0, 4.0]], column_labels=("a", "b"))
        assert m.label_of(2) == "b"
        with pytest.raises(DimensionMismatchError):
            DataMatrix(values=[[1.0, 2.0], [3.0, 4.0]], column_labels=("a",))
        with pytest.raises(ValidationError):
            DataMatrix(values=[[1.0, 2.0], [3.0, 4.0]], column_labels=("a", "a"))

    def test_rejects_bad_values(self):
        with pytest.raises(ValidationError):
            DataMatrix(values=[[1.0, 2.0]])  # n = 1
        with pytest.raises(ValidationError):
            DataMatrix(values=[[1.0], [float("nan")]])
        with pytest.raises(ValidationError):
            DataMatrix(values=[[1.0], [float("inf")]])
        with pytest.raises(ValidationError):
            DataMatrix(values=[1.0, 2.0])  # 1-d

    def test_non_finite_names_first_bad_cell(self):
        values = [[1.0, 2.0], [3.0, float("inf")], [float("nan"), 6.0]]
        with pytest.raises(ValidationError) as exc:
            DataMatrix(values=values, column_labels=("a", "b"))
        assert str(exc.value) == (
            "data matrix entry at row 2, column 'b' is inf; entries must be finite"
        )
        with pytest.raises(ValidationError, match=r"row 3, column 'V1' is nan"):
            DataMatrix(values=[[1.0, 2.0], [3.0, 4.0], [float("nan"), 6.0]])

    @pytest.mark.parametrize("values", [
        np.arange(12.0).reshape(4, 3),
        np.asfortranarray(np.arange(12.0).reshape(4, 3)),
        np.arange(24.0).reshape(4, 6)[:, ::2],
        np.arange(12).reshape(4, 3),
    ], ids=["c-order", "f-order", "strided-view", "integer"])
    def test_values_column_major_copy(self, values):
        m = DataMatrix(values=values)
        assert m.values.flags.f_contiguous
        assert not m.values.flags.writeable
        assert m.values.dtype == np.float64
        assert not np.shares_memory(m.values, values)
        assert m.values.tolist() == values.tolist()

    def test_values_read_only_and_copied(self):
        src = np.array([[1.0, 2.0], [3.0, 4.0]])
        m = DataMatrix(values=src)
        src[0, 0] = 99.0
        assert m.values[0, 0] == 1.0
        with pytest.raises(ValueError):
            m.values[0, 0] = 7.0

    def test_equality_is_identity(self):
        # comparing the values arrays would raise: the truth value is ambiguous
        values = np.array([[1.0, 2.0], [3.0, 4.0]])
        m = DataMatrix(values=values)
        assert m == m
        assert (m == DataMatrix(values=values)) is False
        assert len({m, DataMatrix(values=values)}) == 2



class TestTailPartition:
    def test_normalizes_and_counts(self):
        part = TailPartition(groups=((3, 1), (2,)))
        assert part.groups == ((1, 3), (2,))
        assert part.p == 3
        assert part.num_groups == 2
        assert part.labels().tolist() == [1, 2, 1]

    def test_rejects_invalid(self):
        with pytest.raises(ValidationError):
            TailPartition(groups=((1,), (1, 2)))  # overlap
        with pytest.raises(ValidationError):
            TailPartition(groups=((1,), (3,)))  # gap: 2 missing
        with pytest.raises(ValidationError):
            TailPartition(groups=((1,), ()))  # empty group
        with pytest.raises(ValidationError):
            TailPartition(groups=())


class TestClusterParams:
    def test_valid(self):
        p = ClusterParams(k=2, k_star=4, beta=0.5)
        assert p.known_g is None
        assert p.with_known_g(3).known_g == 3

    def test_invariants(self):
        with pytest.raises(ValidationError):
            ClusterParams(k=0, k_star=4, beta=0.5)
        with pytest.raises(ValidationError):
            ClusterParams(k=4, k_star=4, beta=0.5)  # k < k_star
        with pytest.raises(ValidationError):
            ClusterParams(k=2, k_star=4, beta=1.0)
        with pytest.raises(ValidationError):
            ClusterParams(k=2, k_star=4, beta=0.2)  # floor(beta k) = 0
        with pytest.raises(ValidationError):
            ClusterParams(k=2, k_star=4, beta=0.5, known_g=0)

    @pytest.mark.parametrize("field, value", [
        ("k", 2.5), ("k", 2.0), ("k_star", 10.0), ("k_star", np.float64(10)),
        ("known_g", 2.0), ("known_g", True),
    ])
    def test_ranks_must_be_integers(self, field, value):
        # each of these constructed, and a float k failed later in a slice
        with pytest.raises(ValidationError) as exc:
            ClusterParams(**{"k": 2, "k_star": 10, "beta": 0.5, field: value})
        assert str(exc.value) == f"{field} must be an integer, got {value!r}"

    def test_numpy_integer_ranks_accepted(self):
        p = ClusterParams(k=np.int64(2), k_star=np.int64(10), beta=0.5, known_g=np.int64(2))
        assert (p.k, p.k_star, p.known_g) == (2, 10, 2)

    def test_validate_for(self):
        p = ClusterParams(k=2, k_star=4, beta=0.5)
        p.validate_for(n=5, p=3)
        with pytest.raises(ValidationError):
            p.validate_for(n=4, p=3)  # k_star > n - 1
        with pytest.raises(ValidationError):
            p.with_known_g(4).validate_for(n=5, p=3)


class TestGroundTruth:
    def test_accessors(self):
        t = GroundTruth(group_of=[1, 1, 2], gammas=[1.0, 0.5])
        assert (t.p, t.g) == (3, 2)
        assert t.column_gammas().tolist() == [1.0, 1.0, 0.5]

    def test_callers_arrays_stay_writeable(self):
        labels, gammas = np.array([1, 1, 2]), np.array([1.0, 0.5])
        t = GroundTruth(group_of=labels, gammas=gammas)
        assert labels.flags.writeable and gammas.flags.writeable
        assert not t.group_of.flags.writeable and not t.gammas.flags.writeable
        labels[0] = 2
        gammas[0] = 9.0
        assert t.group_of.tolist() == [1, 1, 2]
        assert t.gammas.tolist() == [1.0, 0.5]

    def test_equality_is_identity(self):
        t = GroundTruth(group_of=[1, 1, 2], gammas=[1.0, 0.5])
        assert t == t
        assert (t == GroundTruth(group_of=[1, 1, 2], gammas=[1.0, 0.5])) is False

    def test_invariants(self):
        with pytest.raises(ValidationError):
            GroundTruth(group_of=[1, 2], gammas=[0.5, 1.0])  # increasing
        with pytest.raises(ValidationError):
            GroundTruth(group_of=[1, 2], gammas=[1.0, -0.5])
        with pytest.raises(ValidationError):
            GroundTruth(group_of=[1, 1], gammas=[1.0, 0.5])  # label 2 unused
        with pytest.raises(ValidationError):
            GroundTruth(group_of=[1, 3], gammas=[1.0, 0.5])
        with pytest.raises(ValidationError, match="^group_of and gammas must be 1-D$"):
            GroundTruth(group_of=[[1, 2]], gammas=[1.0, 0.5])


class TestDefaultParams:
    def test_k_formula(self):
        # floor(3 * ln(21)^1.05) = floor(9.656...) = 9
        assert default_k_oracle(21) == 9
        assert resolve_params(21, 5014)[0].k == 9

    def test_k_star_formula(self):
        # floor(2000^0.98) = floor(1717.9...) = 1717
        assert default_k_star_oracle(2000) == 1717
        assert resolve_params(21, 2000)[0].k_star == 1717

    def test_beta_formula(self):
        got = resolve_params(21, 2000)[0]
        assert got.beta == pytest.approx(beta_oracle(9, 1717, 21), abs=1e-15)
        assert f"{got.beta:.4f}" == "0.7202"

    def test_domain(self):
        with pytest.raises(ValidationError, match="p must be >= 2"):
            resolve_params(1, 2000)
        with pytest.raises(ValidationError, match="n0 must be >= 4"):
            resolve_params(21, 3)

    @given(p=st.integers(2, 5000), n0=st.integers(4, 10**7))
    @settings(max_examples=200)
    def test_output_valid_or_error(self, p, n0):
        try:
            params = resolve_params(p, n0)[0]
        except ValidationError:
            return
        assert params.k == default_k_oracle(p)
        assert params.k_star == default_k_star_oracle(n0)
        assert params.beta <= 0.9
        assert params.known_g is None


class TestResolveParams:
    def test_all_defaults(self):
        params, used = resolve_params(21, 2000)
        assert (params.k, params.k_star) == (default_k_oracle(21), default_k_star_oracle(2000))
        assert params.beta == pytest.approx(beta_oracle(9, 1717, 21), abs=1e-15)
        assert used == ("k", "k_star", "beta")

    def test_overrides_win(self):
        params, used = resolve_params(21, 2000, k=5, k_star=100, beta=0.6)
        assert (params.k, params.k_star, params.beta) == (5, 100, 0.6)
        assert used == ()

    def test_beta_tracks_effective_k(self):
        # beta default must be recomputed from the overridden k, not the
        # formula k
        params, used = resolve_params(21, 2000, k=4)
        assert params.k == 4
        assert params.beta == pytest.approx(beta_oracle(4, 1717, 21), abs=1e-15)
        assert used == ("k_star", "beta")

    def test_override_checked_not_unused_default(self):
        # at p=21, n0=4 the formulas give k=9, k_star=3, which is invalid;
        # an explicit k_star replaces the formula value before any check
        params, used = resolve_params(21, 4, k_star=100)
        assert (params.k, params.k_star) == (9, 100)
        assert used == ("k", "beta")
        with pytest.raises(ValidationError, match="got k=9, k_star=5"):
            resolve_params(21, 4, k_star=5)
        with pytest.raises(ValidationError, match="n0 must be >= 4, got 3"):
            resolve_params(21, 3, k=2)


class TestAccuracy:
    def test_exact_match(self):
        truth = GroundTruth(group_of=[1, 1, 2, 2], gammas=[1.0, 0.5])
        est = TailPartition(groups=((1, 2), (3, 4)))
        assert accuracy(truth, est) == 1.0

    def test_partial_match(self):
        truth = GroundTruth(group_of=[1, 1, 2, 2], gammas=[1.0, 0.5])
        est = TailPartition(groups=((1,), (2, 3, 4)))
        # estimated labels are [1, 2, 2, 2]: column 2 moved, the rest match
        assert accuracy(truth, est) == 0.75

    def test_swapped_labels_score_zero(self):
        truth = GroundTruth(group_of=[1, 2], gammas=[1.0, 0.5])
        est = TailPartition(groups=((2,), (1,)))
        assert accuracy(truth, est) == 0.0

    def test_dimension_mismatch(self):
        truth = GroundTruth(group_of=[1, 2], gammas=[1.0, 0.5])
        with pytest.raises(DimensionMismatchError):
            accuracy(truth, TailPartition(groups=((1, 2, 3),)))

    @given(st.lists(st.integers(1, 3), min_size=3, max_size=12))
    def test_range_and_equality_condition(self, raw):
        # make the label vector use 1..g contiguously
        labels = np.asarray(raw)
        _, labels = np.unique(labels, return_inverse=True)
        labels = labels + 1
        g = labels.max()
        truth = GroundTruth(
            group_of=labels, gammas=[2.0**-i for i in range(g)]
        )
        groups = tuple(
            tuple(int(j) for j in np.flatnonzero(labels == ell) + 1)
            for ell in range(1, g + 1)
        )
        est = TailPartition(groups=groups)
        assert accuracy(truth, est) == 1.0
        # reversing group order must break the exact match unless g == 1
        rev = TailPartition(groups=groups[::-1])
        score = accuracy(truth, rev)
        assert 0.0 <= score <= 1.0
        assert (score == 1.0) == (g == 1)


class TestMse:
    def test_examples(self):
        assert mse([1.0, 0.5], [1.0, 0.5]) == 0.0
        assert mse([1.0, 1.0], [1.1, 0.9]) == pytest.approx(0.01, abs=1e-15)
        assert mse([1.0, 0.5, 0.25], [0.9, 0.6, 0.25]) == pytest.approx(
            (0.01 + 0.01 + 0.0) / 3.0, abs=1e-15
        )

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            mse([1.0, 2.0], [1.0])

    @given(
        st.lists(
            st.floats(0.01, 10.0, allow_nan=False), min_size=1, max_size=20
        )
    )
    def test_self_and_symmetry(self, xs):
        assert mse(xs, xs) == 0.0
        ys = [x + 0.5 for x in xs]
        assert mse(xs, ys) == mse(ys, xs)


class TestTruthFromDesign:
    def test_examples(self):
        t = truth_from_design(3, 1, 0.5)
        assert t.gammas.tolist() == [1.0, 0.5, 0.25]
        assert t.group_of.tolist() == [1, 2, 3]

        t = truth_from_design(1, 4, 0.5)
        assert t.gammas.tolist() == [1.0]
        assert t.group_of.tolist() == [1, 1, 1, 1]

        t = truth_from_design(2, 2, 0.1)
        assert t.gammas.tolist() == [1.0, 0.9]
        assert t.group_of.tolist() == [1, 1, 2, 2]

    def test_domain(self):
        with pytest.raises(ValidationError):
            truth_from_design(0, 2, 0.5)
        with pytest.raises(ValidationError):
            truth_from_design(2, 2, 1.0)

    @given(
        g=st.integers(1, 8),
        q=st.integers(1, 8),
        delta=st.floats(0.01, 0.99),
    )
    def test_design_invariants(self, g, q, delta):
        t = truth_from_design(g, q, delta)
        assert t.p == g * q
        assert np.all(np.diff(t.gammas) < 0) or g == 1
        # ceil(j / q) labeling puts exactly q columns in each group
        counts = np.bincount(t.group_of, minlength=g + 1)[1:]
        assert counts.tolist() == [q] * g
        expect = [math.ceil(j / q) for j in range(1, g * q + 1)]
        assert t.group_of.tolist() == expect
