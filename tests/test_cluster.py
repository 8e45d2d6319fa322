"""Tests for the iterative threshold clustering procedures."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tailcluster import cluster as cluster_module
from tailcluster import hill as hill_module
from tailcluster.cluster import (
    ActiveSetExhausted,
    IterationTrace,
    cluster_known_g,
    cluster_unknown_g,
)
from tailcluster.core import (
    ClusterParams,
    DataMatrix,
    TailPartition,
    ValidationError,
    resolve_params,
)
from tailcluster.hill import estimate_group_indices, hill_gammas, tail_kmeans
from tailcluster.order_stats import NonpositiveThreshold
from tailcluster.simulate import MODELS, SimModelSpec, generate

# ---------------------------------------------------------------------------
# brute-force reference of the whole peeling loop, written before the
# implementation: full sorts everywhere, no shared code with the library


def reference_cluster(values, k, k_star, beta, stop_after=None):
    """Groups, and per step (active, threshold, column stats, extracted)."""
    n, p = values.shape
    denoms = np.array(
        [sorted(values[:, j], reverse=True)[k_star] for j in range(p)]
    )
    scaled = values / denoms
    active = list(range(1, p + 1))
    groups = []
    steps = []
    while active:
        if stop_after is not None and len(groups) == stop_after - 1:
            groups.append(tuple(active))
            break
        pool = sorted(
            np.concatenate([scaled[:, j - 1] for j in active]), reverse=True
        )
        u = pool[k * len(active) - 1]
        mk = math.floor(beta * k)
        stats = {j: sorted(scaled[:, j - 1], reverse=True)[mk] for j in active}
        grp = [j for j in active if stats[j] >= u]
        steps.append((tuple(active), u, stats, tuple(grp)))
        groups.append(tuple(grp))
        active = [j for j in active if j not in grp]
    return tuple(groups), steps


def trace_tuples(trace):
    return [(s.active, s.threshold, s.column_stats, s.extracted) for s in trace.steps]


def pareto_data(seed: int, gammas, n: int) -> DataMatrix:
    rng = np.random.default_rng(seed)
    u = rng.uniform(1e-12, 1.0 - 1e-12, size=(n, len(gammas)))
    return DataMatrix(values=u ** -np.asarray(gammas))


HAND_VALUES = np.column_stack(
    [
        np.array([1, 2, 3, 4, 5, 100.0]),
        np.array([1, 1.2, 1.4, 1.6, 1.8, 1.9]),
    ]
)
HAND_PARAMS = ClusterParams(k=2, k_star=4, beta=0.5)


class TestExtractHeaviestGroup:
    """One peeling step, read off the first step of the trace."""

    def test_hand_example(self):
        _, trace = cluster_unknown_g(DataMatrix(values=HAND_VALUES), HAND_PARAMS)
        step = trace.steps[0]
        # threshold is the 4th largest of the 12 pooled values
        assert step.threshold == 1.9 / 1.2
        # statistics (2nd largest per column) are 2.5 and 1.5
        assert step.column_stats == {1: 2.5, 2: 1.5}
        assert step.extracted == (1,)

    def test_single_column_always_extracted(self):
        data = DataMatrix(values=HAND_VALUES[:, 1:])
        _, trace = cluster_unknown_g(data, HAND_PARAMS)
        assert trace.steps[0].extracted == (1,)

    def test_identical_columns_extracted_together(self):
        col = np.array([1, 2, 3, 4, 5, 6.0])
        data = DataMatrix(values=np.column_stack([col, col]))
        _, trace = cluster_unknown_g(data, ClusterParams(k=2, k_star=3, beta=0.5))
        assert trace.steps[0].extracted == (1, 2)

    def test_domain(self):
        with pytest.raises(ValidationError):
            ClusterParams(k=2, k_star=4, beta=1.0)
        with pytest.raises(ValidationError):
            cluster_unknown_g(
                DataMatrix(values=HAND_VALUES), ClusterParams(k=7, k_star=8, beta=0.5)
            )

    @given(seed=st.integers(0, 10**6), beta=st.floats(0.34, 0.99))
    @settings(max_examples=100, deadline=None)
    def test_group_never_empty(self, seed, beta):
        data = pareto_data(seed, [1.0, 0.7, 0.4, 0.2], n=40)
        _, trace = cluster_unknown_g(data, ClusterParams(k=3, k_star=10, beta=beta))
        assert trace.steps[0].extracted


class TestClusterKnownG:
    def test_hand_example(self):
        data = DataMatrix(values=HAND_VALUES)
        part, trace = cluster_known_g(data, HAND_PARAMS.with_known_g(2))
        assert part.groups == ((1,), (2,))
        # one threshold step; the final group is the untested remainder
        assert len(trace) == 1
        assert trace.steps[0].threshold == 1.9 / 1.2
        assert trace.steps[0].extracted == (1,)

    def test_g_one_no_threshold_steps(self):
        data = DataMatrix(values=HAND_VALUES)
        part, trace = cluster_known_g(data, HAND_PARAMS.with_known_g(1))
        assert part.groups == ((1, 2),)
        assert len(trace) == 0

    def test_g_equals_p_singletons(self):
        # three well-separated tails peel off one at a time
        data = pareto_data(0, [2.0, 0.5, 0.1], n=80)
        params = ClusterParams(k=4, k_star=20, beta=0.5, known_g=3)
        part, trace = cluster_known_g(data, params)
        assert part.groups == ((1,), (2,), (3,))
        assert part.groups == reference_cluster(
            data.values, k=4, k_star=20, beta=0.5, stop_after=3
        )[0]

    def test_matches_reference_loop(self):
        cases = [
            (pareto_data(seed, [1.5, 0.8, 0.3], n=60), ClusterParams(k=3, k_star=15, beta=0.6))
            for seed in range(8)
        ]
        for model in MODELS:
            for seed, (g_true, q, n) in enumerate([(3, 2, 60), (2, 4, 120), (4, 2, 200)]):
                spec = SimModelSpec(model=model, g=g_true, q=q, delta=0.5, n=n, seed=seed)
                data, _ = generate(spec)
                cases.append((data, resolve_params(data.p, n)[0]))
        for case, (data, base) in enumerate(cases):
            for g in range(1, data.p + 1):
                ref, ref_steps = reference_cluster(
                    data.values, base.k, base.k_star, base.beta, stop_after=g
                )
                where = f"case={case} g={g}"
                if len(ref) < g:
                    # an extraction connected the remaining columns; the
                    # requested count is unreachable
                    with pytest.raises(ActiveSetExhausted) as exc:
                        cluster_known_g(data, base.with_known_g(g))
                    assert exc.value.iteration == len(ref) + 1, where
                    continue
                part, trace = cluster_known_g(data, base.with_known_g(g))
                assert part.groups == ref, where
                assert trace_tuples(trace) == ref_steps, where

    def test_requires_known_g(self):
        data = DataMatrix(values=HAND_VALUES)
        with pytest.raises(ValidationError):
            cluster_known_g(data, HAND_PARAMS)

    def test_g_above_p_rejected(self):
        data = DataMatrix(values=HAND_VALUES)
        with pytest.raises(ValidationError):
            cluster_known_g(data, HAND_PARAMS.with_known_g(3))

    def test_active_set_exhausted(self):
        # identical columns leave nothing for the second group
        col = np.array([1, 2, 3, 4, 5, 6.0])
        data = DataMatrix(values=np.column_stack([col, col]))
        with pytest.raises(ActiveSetExhausted) as exc:
            cluster_known_g(data, HAND_PARAMS.with_known_g(2))
        assert exc.value.iteration == 2


class TestClusterUnknownG:
    def test_hand_example_with_tie(self):
        data = DataMatrix(values=HAND_VALUES)
        part, trace = cluster_unknown_g(data, HAND_PARAMS)
        assert part.groups == ((1,), (2,))
        assert len(trace) == 2
        # second iteration: threshold and column statistic are the same
        # order statistic (both the 2nd largest of scaled column 2), and
        # the >= rule admits the tie
        step = trace.steps[1]
        assert step.active == (2,)
        assert step.threshold == step.column_stats[2]
        assert step.extracted == (2,)

    def test_single_column(self):
        data = DataMatrix(values=HAND_VALUES[:, :1])
        part, trace = cluster_unknown_g(data, HAND_PARAMS)
        assert part.groups == ((1,),)
        assert len(trace) == 1

    def test_rejects_known_g(self):
        data = DataMatrix(values=HAND_VALUES)
        with pytest.raises(ValidationError):
            cluster_unknown_g(data, HAND_PARAMS.with_known_g(2))

    def test_matches_reference_loop(self):
        for seed in range(8):
            data = pareto_data(seed, [1.5, 0.8, 0.3, 0.1], n=60)
            params = ClusterParams(k=3, k_star=15, beta=0.6)
            part, trace = cluster_unknown_g(data, params)
            ref, ref_steps = reference_cluster(data.values, 3, 15, 0.6)
            assert part.groups == ref
            assert trace_tuples(trace) == ref_steps
            assert len(trace) <= data.p


class TestAlgorithmProperties:
    @given(seed=st.integers(0, 10**6), ties=st.booleans(), data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_trace_matches_sort_oracle(self, seed, ties, data):
        # k * |active| runs past n here, so the cutoff is taken both from
        # the top rows and from whole columns; tails far apart let one
        # column hold most of the top pooled values
        rng = np.random.default_rng(seed)
        values = rng.uniform(1e-12, 1.0, size=(12, 4)) ** -rng.uniform(0.05, 3.0, size=4)
        if ties:
            values = np.ceil(values * 2.0)
        k = data.draw(st.integers(2, 9))
        k_star = data.draw(st.integers(k + 1, 10))
        beta = data.draw(st.floats(0.5, 0.99))
        part, trace = cluster_unknown_g(
            DataMatrix(values=values), ClusterParams(k=k, k_star=k_star, beta=beta)
        )
        ref, ref_steps = reference_cluster(values, k, k_star, beta)
        assert part.groups == ref
        assert trace_tuples(trace) == ref_steps

    @given(seed=st.integers(0, 10**6))
    @settings(max_examples=60, deadline=None)
    def test_partition_always_valid(self, seed):
        data = pareto_data(seed, [1.0, 0.6, 0.3, 0.15, 0.05], n=50)
        params = ClusterParams(k=3, k_star=12, beta=0.6)
        part, trace = cluster_unknown_g(data, params)
        # TailPartition construction enforces disjoint/exhaustive/non-empty
        assert part.p == data.p
        assert len(trace) <= data.p
        actives = [len(s.active) for s in trace.steps]
        assert all(a > b for a, b in zip(actives, actives[1:]))

    @given(seed=st.integers(0, 10**6), scale_seed=st.integers(0, 10**6))
    @settings(max_examples=60, deadline=None)
    def test_scale_invariance(self, seed, scale_seed):
        data = pareto_data(seed, [1.2, 0.5, 0.2], n=50)
        c = np.random.default_rng(scale_seed).uniform(0.01, 100.0, size=3)
        scaled_data = DataMatrix(values=data.values * c)
        params = ClusterParams(k=3, k_star=12, beta=0.6)
        base, _ = cluster_unknown_g(data, params)
        moved, _ = cluster_unknown_g(scaled_data, params)
        assert base == moved

    @given(seed=st.integers(0, 10**6), perm_seed=st.integers(0, 10**6))
    @settings(max_examples=60, deadline=None)
    def test_permutation_equivariance(self, seed, perm_seed):
        data = pareto_data(seed, [1.2, 0.5, 0.2, 0.1], n=50)
        perm = np.random.default_rng(perm_seed).permutation(4)
        permuted = DataMatrix(values=data.values[:, perm])
        params = ClusterParams(k=3, k_star=12, beta=0.6)
        base, _ = cluster_unknown_g(data, params)
        moved, _ = cluster_unknown_g(permuted, params)
        # new column i holds old column perm[i-1]+1
        expected = tuple(
            tuple(
                sorted(
                    i + 1
                    for i in range(4)
                    if perm[i] + 1 in grp
                )
            )
            for grp in base.groups
        )
        assert moved.groups == expected

    @given(seed=st.integers(0, 10**6), shuffle_seed=st.integers(0, 10**6))
    @settings(max_examples=60, deadline=None)
    def test_row_order_invariance(self, seed, shuffle_seed):
        data = pareto_data(seed, [1.2, 0.5, 0.2], n=50)
        rows = np.random.default_rng(shuffle_seed).permutation(50)
        shuffled = DataMatrix(values=data.values[rows])
        params = ClusterParams(k=3, k_star=12, beta=0.6)
        base, base_trace = cluster_unknown_g(data, params)
        moved, moved_trace = cluster_unknown_g(shuffled, params)
        assert base == moved
        assert [s.threshold for s in base_trace.steps] == [
            s.threshold for s in moved_trace.steps
        ]

    @given(seed=st.integers(0, 10**6))
    @settings(max_examples=60, deadline=None)
    def test_known_unknown_consistency(self, seed):
        data = pareto_data(seed, [1.3, 0.7, 0.35, 0.15], n=60)
        params = ClusterParams(k=3, k_star=15, beta=0.6)
        auto, _ = cluster_unknown_g(data, params)
        g_hat = auto.num_groups
        fixed, _ = cluster_known_g(data, params.with_known_g(g_hat))
        assert fixed == auto
        for g_prime in range(1, g_hat):
            part, _ = cluster_known_g(data, params.with_known_g(g_prime))
            assert part.groups[: g_prime - 1] == auto.groups[: g_prime - 1]
            tail_union = sorted(
                j for grp in auto.groups[g_prime - 1 :] for j in grp
            )
            assert part.groups[g_prime - 1] == tuple(tail_union)


def assert_peel_invariants(steps, p):
    """Extractions are disjoint; each active set is the last minus its extraction."""
    extracted = [j for step in steps for j in step.extracted]
    assert len(extracted) == len(set(extracted))
    assert set(extracted) <= set(range(1, p + 1))
    if steps:
        assert steps[0].active == tuple(range(1, p + 1))
    for prev, step in zip(steps, steps[1:]):
        assert step.active == tuple(j for j in prev.active if j not in prev.extracted)
        assert set(step.active) < set(prev.active)


class TestTrace:
    @given(
        seed=st.integers(0, 10**6),
        ties=st.booleans(),
        dup=st.booleans(),
        data=st.data(),
    )
    @settings(max_examples=100, deadline=None)
    def test_peel_invariants(self, seed, ties, dup, data):
        # mixed tail indices; ties rounds values, dup repeats a column
        rng = np.random.default_rng(seed)
        p = data.draw(st.integers(2, 8))
        n = data.draw(st.integers(20, 80))
        u = rng.uniform(1e-12, 1.0 - 1e-12, size=(n, p))
        values = u ** -rng.uniform(0.05, 2.0, size=p)
        if ties:
            values = np.ceil(values * 2.0)
        if dup:
            values[:, -1] = values[:, 0]
        k = data.draw(st.integers(2, n // 4))
        k_star = data.draw(st.integers(k + 1, n - 1))
        beta = data.draw(st.floats(0.5, 0.99))
        matrix = DataMatrix(values=values)
        params = ClusterParams(k=k, k_star=k_star, beta=beta)
        _, trace = cluster_unknown_g(matrix, params)
        assert_peel_invariants(trace.steps, p)
        assert sorted(j for step in trace.steps for j in step.extracted) == list(range(1, p + 1))
        for g in range(1, len(trace) + 1):
            part, prefix = cluster_known_g(matrix, params.with_known_g(g))
            assert prefix.steps == trace.steps[: g - 1]
            assert_peel_invariants(prefix.steps, p)
            assert part.groups[-1] == trace.steps[g - 1].active
            assert sorted(j for grp in part.groups for j in grp) == list(range(1, p + 1))

    def test_len(self):
        assert len(IterationTrace(steps=())) == 0


def trace_bits(trace):
    # float.hex tells -0.0 from 0.0: equal bits, not just equal values
    return [
        (s.active, s.threshold.hex(), {j: v.hex() for j, v in s.column_stats.items()}, s.extracted)
        for s in trace.steps
    ]


@pytest.fixture
def passes(monkeypatch):
    """Counts of self_scale calls (peels) and of per-column Hill estimates."""
    counts = {"peel": 0, "hill_columns": 0}
    real_scale, real_gamma = cluster_module.self_scale, hill_module._gamma

    def scale(*args):
        counts["peel"] += 1
        return real_scale(*args)

    def gamma(*args):
        counts["hill_columns"] += 1
        return real_gamma(*args)

    monkeypatch.setattr(cluster_module, "self_scale", scale)
    monkeypatch.setattr(hill_module, "_gamma", gamma)
    return counts


def fig1_method_set(matrix, params, g):
    """Both proposed methods and the baseline, each with its group estimates,
    every call on the DataMatrix that matrix() returns."""
    known, known_trace = cluster_known_g(matrix(), params.with_known_g(g))
    unknown, unknown_trace = cluster_unknown_g(matrix(), params)
    kmeans = tail_kmeans(matrix(), g, params.k)
    means = [
        tuple(a.tobytes() for a in estimate_group_indices(matrix(), part, params.k))
        for part in (known, unknown, kmeans)
    ]
    return known, trace_bits(known_trace), unknown, trace_bits(unknown_trace), kmeans, means


class TestMemo:
    """A DataMatrix peels once per (k, k_star, beta) and runs one Hill pass per k."""

    def test_method_set_runs_one_peel_and_one_hill_pass(self, passes):
        data, truth = generate(SimModelSpec(model="A_F", g=3, q=4, delta=0.5, n=500, seed=8))
        params = resolve_params(data.p, data.n)[0]
        shared = fig1_method_set(lambda: data, params, truth.g)
        assert passes == {"peel": 1, "hill_columns": data.p}
        separate = fig1_method_set(lambda: DataMatrix(values=data.values), params, truth.g)
        assert passes == {"peel": 3, "hill_columns": 5 * data.p}
        assert shared == separate

    def test_no_sharing_across_objects(self, passes):
        data = pareto_data(11, [1.0, 0.5, 0.25], n=200)
        params = ClusterParams(k=4, k_star=40, beta=0.6)
        for matrix in (data, DataMatrix(values=data.values)):
            cluster_unknown_g(matrix, params)
            hill_gammas(matrix, params.k)
        assert passes == {"peel": 2, "hill_columns": 2 * data.p}

    def test_known_g_above_p_rejected_after_a_memoised_peel(self):
        data = pareto_data(12, [1.0, 0.5, 0.25], n=200)
        params = ClusterParams(k=4, k_star=40, beta=0.6)
        cluster_unknown_g(data, params)
        with pytest.raises(ValidationError, match="known_g=4 exceeds p=3"):
            cluster_known_g(data, params.with_known_g(4))

    def test_shared_trace_is_read_only(self):
        data = pareto_data(14, [1.0, 0.5, 0.25], n=200)
        params = ClusterParams(k=4, k_star=40, beta=0.6)
        part, trace = cluster_unknown_g(data, params)
        bits = trace_bits(trace)
        with pytest.raises(TypeError):
            trace.steps[0].column_stats[1] = -1.0
        again, trace_again = cluster_unknown_g(data, params)
        assert again == part and trace_bits(trace_again) == bits

    def test_failed_peel_not_memoised(self, passes):
        values = pareto_data(13, [1.0, 0.5], n=60).values.copy()
        values[:50, 1] = 0.0  # column 2's scaling denominator is 0
        data = DataMatrix(values=values)
        params = ClusterParams(k=2, k_star=20, beta=0.6)
        for _ in range(2):
            with pytest.raises(NonpositiveThreshold, match="column V2"):
                cluster_unknown_g(data, params)
        assert passes["peel"] == 2


class TestMemoryLayout:
    @pytest.mark.parametrize("model", MODELS)
    def test_c_and_f_input_agree(self, model):
        data, _ = generate(SimModelSpec(model=model, g=3, q=4, delta=0.5, n=400, seed=5))
        params = resolve_params(data.p, data.n)[0]
        runs = []
        for values in (np.ascontiguousarray(data.values), np.asfortranarray(data.values)):
            m = DataMatrix(values=values)
            part, trace = cluster_unknown_g(m, params)
            known, _ = cluster_known_g(m, params.with_known_g(2))
            runs.append((part, trace_tuples(trace), known, hill_gammas(m, params.k).tobytes()))
        assert runs[0] == runs[1]

    def test_peel_peak_memory(self):
        # k * p >= n, so the first pool is the whole sorted block: the peel
        # holds the block and one pool copy, not a second copy of the pool
        data, _ = generate(
            SimModelSpec(model="EXACT_PARETO", g=4, q=500, delta=0.5, n=400, seed=3)
        )
        params = resolve_params(data.p, data.n)[0]
        assert params.k * data.p >= data.n
        tracemalloc.start()
        try:
            cluster_unknown_g(data, params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * data.values.nbytes

    def test_memo_holds_no_scaled_block(self):
        # the memo keeps the small trace and Hill vector, not the n x p peel block
        data, truth = generate(
            SimModelSpec(model="EXACT_PARETO", g=4, q=500, delta=0.5, n=400, seed=3)
        )
        params = resolve_params(data.p, data.n)[0]
        tracemalloc.start()
        try:
            known, _ = cluster_known_g(data, params.with_known_g(truth.g))
            cluster_unknown_g(data, params)
            tail_kmeans(data, truth.g, params.k)
            estimate_group_indices(data, known, params.k)
            current = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert current < 0.25 * data.values.nbytes
