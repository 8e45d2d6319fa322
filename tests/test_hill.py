"""Tests for Hill estimation, exact 1-D k-means, and group aggregation."""

import math
import tracemalloc
from itertools import combinations
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tailcluster import hill as hill_module
from tailcluster.core import DataMatrix, DimensionMismatchError, TailPartition, ValidationError
from tailcluster.hill import (
    NonpositiveOrderStat,
    estimate_group_indices,
    group_means,
    hill_bands,
    hill_gammas,
    kmeans_1d_exact,
    tail_kmeans,
)
from tailcluster.simulate import MODELS, SimModelSpec, generate

# ---------------------------------------------------------------------------
# oracles, written before the implementations they check

def hill_oracle(values, k: int) -> float:
    # direct formula over a full descending sort
    s = sorted(values, reverse=True)
    return sum(math.log(s[i]) - math.log(s[k]) for i in range(k)) / k


def hill_column(values, k: int) -> float:
    # the one-column Hill computation, step for step: a matrix pass must
    # match it bit for bit
    arr = np.asarray(values, dtype=float)
    part = np.partition(arr, arr.size - 1 - k)
    gamma = float(np.mean(np.log(part[arr.size - k:])) - math.log(part[arr.size - 1 - k]))
    return max(gamma, 0.0)


def wcss(values, groups) -> float:
    # within-cluster sum of squares of a 1-based index partition
    total = 0.0
    for grp in groups:
        members = [values[j - 1] for j in grp]
        mean = sum(members) / len(members)
        total += sum((v - mean) ** 2 for v in members)
    return total


def contiguous_best_cost(values, g: int) -> float:
    # optimal clusters are contiguous in sorted order; enumerate every
    # placement of g-1 boundaries
    order = sorted(range(1, len(values) + 1), key=lambda j: values[j - 1])
    best = math.inf
    for cuts in combinations(range(1, len(values)), g - 1):
        bounds = (0,) + cuts + (len(values),)
        groups = [order[a:b] for a, b in zip(bounds, bounds[1:])]
        best = min(best, wcss(values, groups))
    return best


def set_partitions(items, g):
    # every partition of items into exactly g non-empty blocks
    if len(items) == g:
        yield [[x] for x in items]
        return
    if g == 1:
        yield [list(items)]
        return
    head, rest = items[0], items[1:]
    for part in set_partitions(rest, g - 1):
        yield [[head]] + part
    for part in set_partitions(rest, g):
        for i in range(len(part)):
            yield part[:i] + [[head] + part[i]] + part[i + 1 :]


def _prefix_cost_tables(sorted_vals: np.ndarray):
    s = np.concatenate(([0.0], np.cumsum(sorted_vals)))
    ss = np.concatenate(([0.0], np.cumsum(sorted_vals * sorted_vals)))

    def cost(i: int, j: int) -> float:
        # within-cluster sum of squares of sorted_vals[i..j] inclusive
        m = j - i + 1
        total = s[j + 1] - s[i]
        return max((ss[j + 1] - ss[i]) - total * total / m, 0.0)

    return cost


def reference_kmeans_1d(values, g: int) -> list[tuple[int, ...]]:
    # the pure-Python O(g*p^2) DP with a strict-< scan over split points;
    # kmeans_1d_exact must return exactly the same list
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise ValidationError("values must be a non-empty 1-d vector")
    p = arr.size
    if not 1 <= g <= p:
        raise ValidationError(f"g={g} out of range [1, {p}]")
    order = np.argsort(arr, kind="stable")
    sv = arr[order]
    cost = _prefix_cost_tables(sv)
    # best[m][j]: minimal cost of splitting sv[0..j] into m clusters
    best = [[0.0] * p for _ in range(g + 1)]
    split = [[0] * p for _ in range(g + 1)]
    for j in range(p):
        best[1][j] = cost(0, j)
    for m in range(2, g + 1):
        for j in range(m - 1, p):
            bval, barg = math.inf, m - 1
            for i in range(m - 1, j + 1):
                c = best[m - 1][i - 1] + cost(i, j)
                if c < bval:
                    bval, barg = c, i
            best[m][j] = bval
            split[m][j] = barg
    # backtrack into contiguous blocks of sorted positions
    blocks: list[range] = []
    j = p - 1
    for m in range(g, 0, -1):
        i = split[m][j] if m > 1 else 0
        blocks.append(range(i, j + 1))
        j = i - 1
    blocks.reverse()
    groups = [tuple(sorted(int(order[t]) + 1 for t in blk)) for blk in blocks]
    sums = [float(sv[list(blk)].sum()) for blk in blocks]
    # heaviest-sum group first; blocks listed high-value-first on ties
    ranked = sorted(range(len(blocks)), key=lambda b: (-sums[b], -b))
    return [groups[b] for b in ranked]


def pareto_quantile_column(n: int, gamma: float) -> np.ndarray:
    i = np.arange(1, n + 1)
    return ((n + 1.0) / (n + 1.0 - i)) ** gamma


def one_column_hill(col, k: int) -> float:
    # hill_gammas on a one-column matrix: the library's one-column Hill
    return float(hill_gammas(DataMatrix(values=np.asarray(col, dtype=float)[:, None]), k)[0])


class TestHill:
    def test_top_order_statistics_example(self):
        # top three order statistics e^2, e, 1: log-ratios are 2 and 1
        col = np.array([1.0, math.e, math.e**2])
        assert one_column_hill(col, k=2) == pytest.approx(1.5, abs=1e-12)

    def test_constant_column(self):
        # a tie column gives +0.0, not -0.0
        gamma = one_column_hill(np.full(10, 3.0), k=4)
        assert gamma == 0.0
        assert not np.signbit(gamma)

    def test_pareto_quantile_column(self):
        col = pareto_quantile_column(100, gamma=1.0)
        gamma = one_column_hill(col, k=10)
        assert gamma == pytest.approx(hill_oracle(col, 10), abs=1e-12)
        # the top eleven values are 101/1 .. 101/11, so the estimate is
        # the mean of log(11/(i+1)) for i = 0..9
        direct = float(np.mean([math.log(11.0 / (i + 1)) for i in range(10)]))
        assert gamma == pytest.approx(direct, abs=1e-12)

    def test_converges_on_exact_quantiles(self):
        # deterministic quantile data, n = 10^4, k = 10^3, within 5%
        for gamma in (1.0, 0.5, 0.25):
            col = pareto_quantile_column(10_000, gamma)
            est = one_column_hill(col, k=1_000)
            assert abs(est - gamma) / gamma < 0.05

    def test_scale_invariance(self):
        col = pareto_quantile_column(200, gamma=0.7)
        base = one_column_hill(col, k=20)
        for c in (0.001, 3.7, 4096.0):
            assert one_column_hill(col * c, k=20) == pytest.approx(base, rel=1e-10)

    def test_domain(self):
        col = np.array([1.0, 2.0, 3.0])
        with pytest.raises(ValidationError, match=r"k=0 out of range \[1, 2\]"):
            one_column_hill(col, k=0)
        with pytest.raises(ValidationError, match=r"k=3 out of range \[1, 2\]"):
            one_column_hill(col, k=3)
        # a one-row column has no k in range: the matrix itself refuses it
        with pytest.raises(ValidationError, match="need n >= 2 rows"):
            one_column_hill(np.array([2.0]), k=1)

    def test_nonpositive_order_stat(self):
        with pytest.raises(NonpositiveOrderStat) as exc:
            one_column_hill(np.array([-1.0, 0.5, 2.0, 3.0]), k=3)
        assert exc.value.value == -1.0

    @given(seed=st.integers(0, 10**6), k=st.integers(1, 20))
    @settings(max_examples=150)
    def test_matches_formula_oracle(self, seed, k):
        rng = np.random.default_rng(seed)
        col = rng.pareto(2.0, size=50) + 0.01
        assert one_column_hill(col, k) == pytest.approx(
            max(hill_oracle(col, k), 0.0), abs=1e-12
        )


def band_oracle(gamma: float, k: int, level: float) -> tuple[float, float]:
    # the band formula one estimate at a time, in Python floats
    half = NormalDist().inv_cdf(0.5 * (1.0 + level)) / math.sqrt(k)
    low = gamma * (1.0 - half)
    return (low if low > 0.0 else 0.0), gamma * (1.0 + half)


def one_band(gamma: float, k: int, level: float) -> tuple[float, float]:
    low, high = hill_bands(np.array([gamma]), k, level)
    return float(low[0]), float(high[0])


class TestHillCi:
    def test_arithmetic_example(self):
        low, high = one_band(1.0, 100, level=0.95)
        # z for 97.5% is 1.959964
        assert low == pytest.approx(1.0 - 1.959964 / 10.0, abs=1e-6)
        assert high == pytest.approx(1.0 + 1.959964 / 10.0, abs=1e-6)

    def test_zero_estimate(self):
        # at 95%, k <= 3 makes the factor 1 - z/sqrt(k) negative
        for k in (1, 2, 3, 5):
            low, high = one_band(0.0, k, level=0.95)
            assert (low, high) == (0.0, 0.0)
            assert not np.signbit(low)

    def test_clipped_below_at_zero(self):
        low, _ = one_band(1.0, 1, level=0.99)
        assert low == 0.0
        assert not np.signbit(low)

    def test_wider_level_nests(self):
        narrow = one_band(2.0, 400, level=0.90)
        wide = one_band(2.0, 400, level=0.99)
        assert wide[0] < narrow[0]
        assert narrow[1] < wide[1]

    def test_level_domain(self):
        for level in (0.0, 1.0, -0.5, 1.5, math.nan):
            with pytest.raises(ValidationError, match="level must lie in"):
                hill_bands(np.array([1.0]), 5, level)

    def test_k_domain(self):
        for k in (0, -3):
            with pytest.raises(ValidationError, match=f"k must be >= 1, got {k}"):
                hill_bands(np.array([1.0]), k, 0.95)

    @given(
        gammas=st.lists(st.floats(0.0, 1e3), min_size=1, max_size=8),
        k=st.integers(1, 10_000),
        level=st.floats(1e-6, 1 - 1e-6),
    )
    @settings(max_examples=100)
    def test_matches_scalar_formula(self, gammas, k, level):
        # the array arithmetic is the scalar formula's, so bits agree
        low, high = hill_bands(np.array(gammas), k, level)
        ref = np.array([band_oracle(g, k, level) for g in gammas])
        np.testing.assert_array_equal(low.view(np.int64), ref[:, 0].view(np.int64))
        np.testing.assert_array_equal(high.view(np.int64), ref[:, 1].view(np.int64))

    @given(
        gammas=st.lists(st.floats(0.0, 1e3), min_size=1, max_size=8),
        k=st.integers(1, 10_000),
        levels=st.tuples(st.floats(1e-6, 1 - 1e-6), st.floats(1e-6, 1 - 1e-6)),
    )
    @settings(max_examples=200)
    def test_estimate_invariants(self, gammas, k, levels):
        # the bands bracket their estimates, never carry a negative zero,
        # and widen as the level rises
        gam = np.array(gammas)
        lo_level, hi_level = sorted(levels)
        assume(hi_level - lo_level > 1e-9)
        narrow_low, narrow_high = hill_bands(gam, k, lo_level)
        low, high = hill_bands(gam, k, hi_level)
        assert low.shape == high.shape == gam.shape
        assert np.all((0.0 <= low) & (low <= gam) & (gam <= high))
        assert not np.any(np.signbit(low))
        assert np.all(np.isfinite(high))
        assert np.all((low <= narrow_low) & (narrow_high <= high))


class TestKmeans1dExact:
    def test_two_cluster_example(self):
        got = kmeans_1d_exact([1.0, 1.1, 2.0, 2.1], g=2)
        assert got == [(3, 4), (1, 2)]

    def test_g_one(self):
        assert kmeans_1d_exact([3.0, 1.0, 2.0], g=1) == [(1, 2, 3)]

    def test_g_equals_p_singletons_descending(self):
        got = kmeans_1d_exact([1.0, 2.1, 2.0, 1.1], g=4)
        assert got == [(2,), (3,), (4,), (1,)]

    def test_domain(self):
        with pytest.raises(ValidationError):
            kmeans_1d_exact([1.0, 2.0], g=3)
        with pytest.raises(ValidationError):
            kmeans_1d_exact([1.0, 2.0], g=0)
        with pytest.raises(ValidationError):
            kmeans_1d_exact([], g=1)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected_by_position(self, bad):
        with pytest.raises(ValidationError, match=r"value 2 is (nan|inf|-inf)"):
            kmeans_1d_exact([1.0, bad, 3.0, bad], g=2)

    def test_exact_tie_takes_first_split(self):
        # both splits cost 0.5: the lowest split point wins
        assert kmeans_1d_exact([0.0, 1.0, 2.0], g=2) == [(2, 3), (1,)]
        assert kmeans_1d_exact([1.0, 1.0, 1.0], g=2) == [(2, 3), (1,)]

    def test_cost_blocks_stay_small(self):
        # one p x p float64 matrix at p=3000 would take 72 MB; the blocked
        # DP must stay below 48 MB: its cost blocks are p x _BLOCK, never p x p
        values = np.random.default_rng(3).normal(size=3000)
        tracemalloc.start()
        try:
            kmeans_1d_exact(values, g=2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 48e6

    @given(
        values=st.lists(
            st.floats(-50.0, 50.0, allow_nan=False), min_size=2, max_size=12
        ),
        data=st.data(),
    )
    @settings(max_examples=150, deadline=None)
    def test_cost_is_globally_minimal(self, values, data):
        g = data.draw(st.integers(1, len(values)))
        groups = kmeans_1d_exact(values, g)
        got = wcss(values, groups)
        assert got <= contiguous_best_cost(values, g) + 1e-9

    @given(
        values=st.lists(
            st.floats(-20.0, 20.0, allow_nan=False), min_size=2, max_size=8
        ),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_cost_matches_exhaustive_set_partitions(self, values, data):
        g = data.draw(st.integers(1, len(values)))
        groups = kmeans_1d_exact(values, g)
        got = wcss(values, groups)
        best = min(
            wcss(values, part)
            for part in set_partitions(list(range(1, len(values) + 1)), g)
        )
        assert got <= best + 1e-9

    @given(
        values=st.lists(
            st.floats(0.0, 10.0, allow_nan=False), min_size=3, max_size=10
        ),
        data=st.data(),
    )
    @settings(max_examples=100, deadline=None)
    def test_cost_beats_random_partitions(self, values, data):
        g = data.draw(st.integers(1, len(values)))
        groups = kmeans_1d_exact(values, g)
        got = wcss(values, groups)
        # random competitor: shuffle indices, cut into g runs
        seed = data.draw(st.integers(0, 10**6))
        rng = np.random.default_rng(seed)
        idx = rng.permutation(len(values)) + 1
        cuts = sorted(rng.choice(range(1, len(values)), g - 1, replace=False))
        bounds = [0, *cuts, len(values)]
        rival = [idx[a:b].tolist() for a, b in zip(bounds, bounds[1:])]
        if all(rival):
            assert got <= wcss(values, rival) + 1e-9

    @given(
        values=st.lists(
            st.floats(-50.0, 50.0, allow_nan=False), min_size=2, max_size=12
        ),
        data=st.data(),
    )
    @settings(max_examples=100, deadline=None)
    def test_group_sums_non_increasing(self, values, data):
        g = data.draw(st.integers(1, len(values)))
        groups = kmeans_1d_exact(values, g)
        sums = [sum(values[j - 1] for j in grp) for grp in groups]
        assert all(a >= b - 1e-12 for a, b in zip(sums, sums[1:]))


class TestKmeansMatchesReference:
    @given(
        values=st.lists(
            st.one_of(
                st.integers(-3, 3).map(float),
                st.floats(-1e-3, 1e-3),
                st.floats(-1e6, 1e6),
                # squares overflow: NaN costs must never win a split
                st.sampled_from([1e160, -1e200, 1e200]),
            ),
            min_size=1,
            max_size=40,
        ),
        data=st.data(),
    )
    @settings(max_examples=200, deadline=None)
    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid:RuntimeWarning")
    def test_small_vectors(self, values, data):
        g = data.draw(st.integers(1, len(values)))
        assert kmeans_1d_exact(values, g) == reference_kmeans_1d(values, g)

    @pytest.mark.parametrize("p", [255, 256, 257, 600])
    def test_across_block_edges(self, p):
        values = np.round(np.random.default_rng(p).standard_cauchy(p), 2)
        for g in (1, 2, 3, 5):
            assert kmeans_1d_exact(values, g) == reference_kmeans_1d(values, g)

    @pytest.mark.parametrize("model", MODELS)
    def test_generated_hill_vectors(self, model):
        data, _ = generate(SimModelSpec(model=model, g=3, q=6, delta=0.5, n=400, seed=5))
        gammas = hill_gammas(data, 20)
        for g in range(1, min(data.p, 6) + 1):
            assert kmeans_1d_exact(gammas, g) == reference_kmeans_1d(gammas, g)


class TestHillGammas:
    @pytest.mark.parametrize("model", MODELS)
    def test_equals_single_column_hill_bit_for_bit(self, model):
        # the one-column computation is the reference any faster pass must match
        data, _ = generate(SimModelSpec(model=model, g=3, q=3, delta=0.5, n=300, seed=17))
        for k in (1, 2, 9, 50, 299):
            ref = np.array([hill_column(data.values[:, j - 1], k) for j in range(1, data.p + 1)])
            # compare bit patterns, so that -0.0 against 0.0 fails too
            np.testing.assert_array_equal(hill_gammas(data, k).view(np.int64), ref.view(np.int64))

    @pytest.mark.parametrize("k", [0, 40])
    def test_rejects_k_out_of_range(self, k):
        data = DataMatrix(values=np.column_stack([pareto_quantile_column(40, 0.5)] * 2))
        with pytest.raises(ValidationError, match=rf"k={k} out of range \[1, 39\]"):
            hill_gammas(data, k)

    @pytest.mark.parametrize("k", [2.5, 2.0, True, np.float64(3)])
    def test_rejects_a_k_that_is_not_an_integer(self, k):
        # a float k failed in np.partition; True ran as k=1
        data = DataMatrix(values=np.column_stack([pareto_quantile_column(40, 0.5)] * 2))
        with pytest.raises(ValidationError) as exc:
            hill_gammas(data, k)
        assert str(exc.value) == f"k must be an integer, got {k!r}"
        assert hill_gammas(data, np.int64(3)).tobytes() == hill_gammas(data, 3).tobytes()

    @pytest.mark.parametrize("k", [0, 40])
    def test_k_checked_after_a_memoised_pass(self, k):
        data = DataMatrix(values=np.column_stack([pareto_quantile_column(40, 0.5)] * 2))
        hill_gammas(data, 5)
        with pytest.raises(ValidationError, match=rf"k={k} out of range \[1, 39\]"):
            hill_gammas(data, k)

    def test_shared_vector_is_read_only(self):
        data = DataMatrix(values=np.column_stack([pareto_quantile_column(40, 0.5)] * 2))
        gammas = hill_gammas(data, 5)
        assert gammas.flags.writeable is False
        assert hill_gammas(data, 5) is gammas
        with pytest.raises(ValueError, match="read-only"):
            gammas[0] = 1.0

    def test_failed_pass_not_memoised(self, monkeypatch):
        calls = []
        real = hill_module._gamma

        def counting(arr, k, column=None):
            calls.append(column)
            return real(arr, k, column)

        monkeypatch.setattr(hill_module, "_gamma", counting)
        col = pareto_quantile_column(40, 0.5)
        data = DataMatrix(values=np.column_stack([col, col - col[5]]))
        for _ in range(2):
            with pytest.raises(NonpositiveOrderStat, match="in column V2"):
                hill_gammas(data, 34)
        assert calls == ["V1", "V2"] * 2


class TestTailKmeans:
    def test_separated_pareto_columns(self):
        values = np.column_stack(
            [pareto_quantile_column(100, 1.0), pareto_quantile_column(100, 0.25)]
        )
        part = tail_kmeans(DataMatrix(values=values), g=2, k=10)
        assert part.groups == ((1,), (2,))

    def test_g_one(self):
        values = np.column_stack(
            [pareto_quantile_column(50, 1.0), pareto_quantile_column(50, 0.5)]
        )
        part = tail_kmeans(DataMatrix(values=values), g=1, k=5)
        assert part.groups == ((1, 2),)

    def test_duplicated_column_co_clustered(self):
        col = pareto_quantile_column(60, 0.8)
        values = np.column_stack([col, pareto_quantile_column(60, 0.1), col])
        part = tail_kmeans(DataMatrix(values=values), g=2, k=6)
        labels = part.labels()
        assert labels[0] == labels[2]

    def test_error_names_column(self):
        values = np.column_stack(
            [pareto_quantile_column(10, 1.0), np.linspace(-5, 4, 10)]
        )
        data = DataMatrix(values=values, column_labels=("good", "bad"))
        with pytest.raises(NonpositiveOrderStat, match="in column bad") as exc:
            tail_kmeans(data, g=2, k=8)
        assert exc.value.column == "bad"


class TestEstimateGroupIndices:
    @pytest.fixture
    def three_column_data(self):
        # Hill with k=2 gives exactly 1.5, 0.75, and 3.0
        cols = [
            np.array([1.0, math.e, math.e**2]),
            np.array([1.0, math.e**0.5, math.e**1.0]),
            np.array([1.0, math.e**2, math.e**4]),
        ]
        return DataMatrix(values=np.column_stack(cols))

    def test_two_one_split(self, three_column_data):
        part = TailPartition(groups=((1, 2), (3,)))
        group_gammas, per_col = estimate_group_indices(
            three_column_data, part, k_hill=2
        )
        assert group_gammas == pytest.approx([1.125, 3.0], abs=1e-12)
        assert per_col == pytest.approx([1.125, 1.125, 3.0], abs=1e-12)

    def test_single_group_mean(self, three_column_data):
        part = TailPartition(groups=((1, 2, 3),))
        group_gammas, per_col = estimate_group_indices(
            three_column_data, part, k_hill=2
        )
        assert group_gammas == pytest.approx([1.75], abs=1e-12)
        assert np.all(per_col == per_col[0])

    def test_singletons_reproduce_raw(self, three_column_data):
        part = TailPartition(groups=((1,), (2,), (3,)))
        _, per_col = estimate_group_indices(three_column_data, part, k_hill=2)
        raw = [hill_column(three_column_data.values[:, j - 1], 2) for j in (1, 2, 3)]
        assert per_col == pytest.approx(raw, abs=1e-12)

    def test_dimension_mismatch(self, three_column_data):
        with pytest.raises(ValidationError):
            estimate_group_indices(
                three_column_data, TailPartition(groups=((1, 2),)), k_hill=2
            )

    @pytest.mark.parametrize("groups, p", [(((1,), (2,)), 2), (((1, 3), (2,), (4,)), 4)],
                             ids=["short", "long"])
    def test_group_means_checks_partition_size(self, groups, p):
        # a short partition would leave a column's entry unset, a long one
        # would index past the estimates
        with pytest.raises(DimensionMismatchError) as exc:
            group_means(np.array([1.0, 2.0, 3.0]), TailPartition(groups=groups))
        assert str(exc.value) == f"partition covers p={p} columns, gammas has p=3"

    @given(seed=st.integers(0, 10**6))
    @settings(max_examples=60)
    def test_average_bounded_by_member_range(self, seed):
        rng = np.random.default_rng(seed)
        values = rng.pareto(1.5, size=(60, 5)) + 0.01
        data = DataMatrix(values=values)
        part = TailPartition(groups=((1, 4), (2, 3, 5)))
        group_gammas, per_col = estimate_group_indices(data, part, k_hill=8)
        raw = np.array([hill_column(data.values[:, j - 1], 8) for j in range(1, 6)])
        for gi, grp in enumerate(part.groups):
            members = raw[[j - 1 for j in grp]]
            assert members.min() - 1e-12 <= group_gammas[gi] <= members.max() + 1e-12
            assert np.all(per_col[[j - 1 for j in grp]] == group_gammas[gi])
