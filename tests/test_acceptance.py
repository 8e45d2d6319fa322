"""Acceptance gate: 12 criteria, one printed pass/fail line each.

Each test prints a single "[criterion NN] PASS/FAIL - detail" line on the
real stdout (bypassing capture) so the gate reads as a checklist in any
pytest run. Statistical criteria use fixed seeds; thresholds were
calibrated by pilot runs and sit well inside the observed margins.
"""

import contextlib
import os
from decimal import Decimal, getcontext
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from tailcluster import (
    ClusterParams,
    DataMatrix,
    SimModelSpec,
    cluster_known_g,
    cluster_unknown_g,
    default_params,
    generate,
    resolve_params,
)
from tailcluster.bench import SweepConfig, run_sweep
from tailcluster.cluster import ActiveSetExhausted
from tailcluster.distributions import (
    reg_inc_beta,
    student_t_cdf,
    student_t_quantile,
)
from tailcluster.hill import hill
from tailcluster.ingest import min_positive_count, read_price_csv, returns
from tailcluster.order_stats import upper_order_stat
from tailcluster.simulate import MODELS, build_scale_matrix

getcontext().prec = 60


_DISABLE_CAPTURE = None


@pytest.fixture(autouse=True)
def _live_report(capfd):
    # pytest captures at the fd level; route checklist lines around it
    global _DISABLE_CAPTURE
    _DISABLE_CAPTURE = capfd.disabled
    yield
    _DISABLE_CAPTURE = None


def _say(line: str) -> None:
    ctx = _DISABLE_CAPTURE() if _DISABLE_CAPTURE else contextlib.nullcontext()
    with ctx:
        print(line, flush=True)


def report(criterion: int, passed: bool, detail: str) -> None:
    line = f"[criterion {criterion:02d}] {'PASS' if passed else 'FAIL'} - {detail}"
    _say(line)
    assert passed, line


def report_skip(criterion: int, detail: str) -> None:
    _say(f"[criterion {criterion:02d}] SKIP - {detail}")
    pytest.skip(detail)


# ---------------------------------------------------------------- oracles
# independent arithmetic for the default-parameter formulas (criterion 11)

def oracle_default_k(p: int) -> int:
    ln_p = Decimal(p).ln()
    return max(1, int(3 * ln_p ** Decimal("1.05")))


def oracle_default_k_star(n0: int) -> int:
    return int(Decimal(n0) ** Decimal("0.98"))


def oracle_default_beta(k: int, k_star: int, p: int) -> float:
    return min(2.0 * (k / k_star) * p + 0.5, 0.9)


def sort_oracle(values: np.ndarray, m: int) -> float:
    return float(np.sort(values)[::-1][m])


def random_spec(rng: np.random.Generator) -> SimModelSpec:
    model = MODELS[rng.integers(0, len(MODELS))]
    g = int(rng.integers(1, 5))
    q = int(rng.integers(1, 4)) if g > 1 else int(rng.integers(2, 4))
    return SimModelSpec(
        model=model,
        g=g,
        q=q,
        delta=float(rng.uniform(0.2, 0.8)),
        n=int(rng.integers(60, 401)),
        seed=int(rng.integers(0, 2**63)),
    )


def partition_is_valid(partition, p: int) -> bool:
    flat = [j for grp in partition.groups for j in grp]
    return (
        all(len(grp) > 0 for grp in partition.groups)
        and len(flat) == len(set(flat)) == p
        and set(flat) == set(range(1, p + 1))
    )


# ---------------------------------------------------------------- criteria

def test_criterion_01_partition_validity():
    rng = np.random.default_rng(101)
    exhausted = 0
    for _ in range(500):
        spec = random_spec(rng)
        data, truth = generate(spec)
        params, _ = resolve_params(data.p, spec.n)
        params.validate_for(data.n, data.p)

        part_u, trace_u = cluster_unknown_g(data, params)
        assert partition_is_valid(part_u, data.p)
        assert len(trace_u) <= data.p

        try:
            part_k, trace_k = cluster_known_g(
                data, params.with_known_g(truth.g)
            )
        except ActiveSetExhausted:
            # the draw admits fewer groups than the design; rerun at g-hat
            exhausted += 1
            part_k, trace_k = cluster_known_g(
                data, params.with_known_g(part_u.num_groups)
            )
        assert partition_is_valid(part_k, data.p)
        assert len(trace_k) <= data.p
    report(
        1,
        True,
        f"500 random inputs, both algorithms valid and within p iterations "
        f"({exhausted} known-g draws fell back to g-hat)",
    )


def test_criterion_02_scale_invariance():
    rng = np.random.default_rng(202)
    for _ in range(100):
        spec = random_spec(rng)
        data, _ = generate(spec)
        params, _ = resolve_params(data.p, spec.n)
        scales = 10.0 ** rng.uniform(-6.0, 6.0, size=data.p)
        scaled = DataMatrix(values=data.values * scales)
        base, _ = cluster_unknown_g(data, params)
        other, _ = cluster_unknown_g(scaled, params)
        assert base.groups == other.groups
    report(2, True, "100 datasets, random positive column scales, identical partitions")


def test_criterion_03_order_stat_oracle():
    rng = np.random.default_rng(303)
    checked = 0
    for i in range(1000):
        n = int(rng.integers(5, 400))
        if i % 2 == 0:
            values = rng.integers(0, 5, size=n).astype(float)  # duplicates
        else:
            values = rng.standard_normal(n) * 10.0
        ranks = {0, n - 1, int(rng.integers(0, n))}
        for m in ranks:
            assert upper_order_stat(values, m) == sort_oracle(values, m)
            checked += 1
    report(3, True, f"1000 vectors (with duplicates), {checked} ranks match full sort")


def test_criterion_04_known_unknown_consistency():
    rng = np.random.default_rng(404)
    prefix_checks = 0
    for _ in range(100):
        spec = random_spec(rng)
        data, _ = generate(spec)
        params, _ = resolve_params(data.p, spec.n)
        part_u, _ = cluster_unknown_g(data, params)
        g_hat = part_u.num_groups
        part_k, _ = cluster_known_g(data, params.with_known_g(g_hat))
        assert part_k.groups == part_u.groups
        for g_prime in range(1, g_hat):
            part_p, _ = cluster_known_g(data, params.with_known_g(g_prime))
            assert part_p.groups[: g_prime - 1] == part_u.groups[: g_prime - 1]
            tail_union = tuple(
                sorted(j for grp in part_u.groups[g_prime - 1:] for j in grp)
            )
            assert part_p.groups[g_prime - 1] == tail_union
            prefix_checks += 1
    report(
        4,
        True,
        f"100 datasets: known-g at g-hat identical, {prefix_checks} prefix/union checks",
    )


def test_criterion_05_exact_pareto_consistency_regime():
    config = SweepConfig(
        model="EXACT_PARETO",
        n=2000,
        reps=100,
        master_seed=20260825,
        methods=("proposed_known_g",),
        g=(2,),
        q=(10,),
        delta=(0.5,),
    )
    rep = run_sweep(config)
    (cell,) = rep.points[0].cells
    mean_acc = cell.mean_accuracy
    ok = not cell.failures and mean_acc is not None and mean_acc >= 0.95
    report(
        5,
        ok,
        f"exactly Pareto tails, n=2000, g=2, q=10: mean accuracy {mean_acc:.4f} >= 0.95",
    )


@pytest.fixture(scope="module")
def figure_report():
    config = SweepConfig(
        model="A",
        n=2000,
        reps=100,
        master_seed=20260825,
        methods=("proposed_known_g", "proposed_unknown_g", "tail_kmeans"),
        include_raw_hill=True,
        g=(3,),
        q=(15,),
        delta=(0.1, 0.5),
    )
    return run_sweep(config)


def _cell(rep, delta, method):
    for pt in rep.points:
        if pt.delta == delta:
            for cell in pt.cells:
                if cell.method == method:
                    return cell
    raise KeyError((delta, method))


def test_criterion_06_outperforms_tail_kmeans(figure_report):
    ours = _cell(figure_report, 0.5, "proposed_unknown_g").mean_accuracy
    theirs = _cell(figure_report, 0.5, "tail_kmeans").mean_accuracy
    ok = ours is not None and theirs is not None and ours > theirs
    report(
        6,
        ok,
        f"mean accuracy {ours:.4f} (proposed, unknown g) > {theirs:.4f} (tail k-means)",
    )


def test_criterion_07_reduces_hill_mse(figure_report):
    ours = _cell(figure_report, 0.5, "proposed_unknown_g").mean_mse
    raw = _cell(figure_report, 0.5, "raw_hill").mean_mse
    ok = ours is not None and raw is not None and ours < raw
    report(
        7,
        ok,
        f"mean MSE {ours:.5f} (group-aggregated) < {raw:.5f} (raw per-column Hill)",
    )


def test_criterion_08_accuracy_peaks_in_delta(figure_report):
    mid = _cell(figure_report, 0.5, "proposed_unknown_g").mean_accuracy
    low = _cell(figure_report, 0.1, "proposed_unknown_g").mean_accuracy
    ok = mid is not None and low is not None and mid > low
    report(
        8,
        ok,
        f"mean accuracy {mid:.4f} at separation 0.5 > {low:.4f} at separation 0.1",
    )


def test_criterion_09_special_functions():
    x = np.linspace(-50.0, 50.0, 10_000)
    err1 = np.max(np.abs(student_t_cdf(x, 1.0) - (0.5 + np.arctan(x) / np.pi)))
    err2 = np.max(
        np.abs(student_t_cdf(x, 2.0) - (0.5 + x / (2.0 * np.sqrt(2.0 + x * x))))
    )

    u = np.linspace(1e-6, 1.0 - 1e-6, 2_001)
    err_rt = 0.0
    for v in (1.0, 2.0, 4.0, 10.0):
        err_rt = max(err_rt, np.max(np.abs(student_t_cdf(student_t_quantile(u, v), v) - u)))

    rng = np.random.default_rng(909)
    a = rng.uniform(0.2, 20.0, 2_000)
    b = rng.uniform(0.2, 20.0, 2_000)
    xs = rng.uniform(0.0, 1.0, 2_000)
    sym = np.max(
        np.abs(
            np.array([reg_inc_beta(x_, a_, b_) for x_, a_, b_ in zip(xs, a, b)])
            - (1.0 - np.array([reg_inc_beta(1.0 - x_, b_, a_) for x_, a_, b_ in zip(xs, a, b)]))
        )
    )
    ok = err1 <= 1e-12 and err2 <= 1e-10 and err_rt <= 1e-8 and sym <= 1e-12
    report(
        9,
        ok,
        f"closed-form errors {err1:.2e}/{err2:.2e}, round trip {err_rt:.2e}, "
        f"beta symmetry {sym:.2e}",
    )


def _marginal_cdf(model: str, gamma: float):
    if model in ("A", "B", "C", "D"):
        t = stats.t(df=1.0 / gamma)
        return lambda x: 2.0 * t.cdf(x) - 1.0
    if model in ("A_F", "B_F"):
        return stats.invweibull(c=1.0 / gamma).cdf
    return stats.pareto(b=1.0 / gamma).cdf


def test_criterion_10_generator_fidelity():
    gammas = (1.0, 0.5, 0.25)
    worst = 100
    worst_at = ""
    for model in MODELS:
        passes = {gamma: 0 for gamma in gammas}
        for seed in range(100):
            data, _ = generate(
                SimModelSpec(model=model, g=3, q=1, delta=0.5, n=100_000, seed=seed)
            )
            for j, gamma in enumerate(gammas):
                p_value = stats.kstest(data.values[:, j], _marginal_cdf(model, gamma)).pvalue
                passes[gamma] += p_value > 0.01
        for gamma, count in passes.items():
            if count < worst:
                worst, worst_at = count, f"{model} gamma={gamma}"
            assert count >= 95, f"{model} gamma={gamma}: {count}/100 KS passes"

    chol_err = 0.0
    for family in ("B", "C", "D"):
        sigma = build_scale_matrix(family, 150)
        chol = np.linalg.cholesky(sigma)
        chol_err = max(chol_err, float(np.max(np.abs(chol @ chol.T - sigma))))
    ok = chol_err <= 1e-10
    report(
        10,
        ok,
        f"KS >= 95/100 for every model and gamma (worst {worst}/100 at {worst_at}); "
        f"Cholesky reconstruction {chol_err:.2e} at p=150",
    )


def test_criterion_11_default_parameter_arithmetic():
    k = oracle_default_k(21)
    k_star = oracle_default_k_star(2000)
    beta = oracle_default_beta(k, k_star, 21)
    params = default_params(p=21, n0=2000)
    ok = (
        params.k == k == 9
        and params.k_star == k_star == 1717
        and params.beta == beta
        and f"{params.beta:.4f}" == "0.7202"
    )
    report(
        11,
        ok,
        f"defaults p=21, n0=2000: k={params.k}, k*={params.k_star}, "
        f"beta={params.beta:.6f} match the arithmetic oracle",
    )


def test_criterion_12_currency_returns_reproduction():
    path = os.environ.get("TAILCLUSTER_CURRENCY_CSV")
    candidate = Path(__file__).resolve().parents[1] / "data" / "currency.csv"
    if path is None and candidate.exists():
        path = str(candidate)
    if path is None or not Path(path).exists():
        report_skip(
            12,
            "currency price CSV not supplied "
            "(set TAILCLUSTER_CURRENCY_CSV or add data/currency.csv)",
        )
    data = returns(read_price_csv(path))
    params, _ = resolve_params(data.p, min_positive_count(data))
    params.validate_for(data.n, data.p)
    part_auto, _ = cluster_unknown_g(data, params)
    heaviest = {data.label_of(j) for j in part_auto.groups[0]}
    part_two, _ = cluster_known_g(data, params.with_known_g(2))
    heaviest_two = {data.label_of(j) for j in part_two.groups[0]}
    expected = {"CNY", "MYR", "LKR", "TWD"}
    ok = (
        part_auto.num_groups == 3
        and heaviest == expected
        and heaviest_two == expected
    )
    report(
        12,
        ok,
        f"auto-g found {part_auto.num_groups} groups, heaviest {sorted(heaviest)}; "
        f"g=2 heaviest {sorted(heaviest_two)}",
    )
