"""Tests for the replication sweep harness and its reports."""

import json
import os
from dataclasses import asdict, replace

import numpy as np
import pytest

from tailcluster import bench, cli
from tailcluster import cluster as cluster_module
from tailcluster import hill as hill_module
from tailcluster.bench import (
    DEFAULT_MASTER_SEED,
    METHODS,
    BenchReport,
    MethodCell,
    PRESETS,
    SweepConfig,
    emit_report,
    parse_report,
    run_replication,
    run_sweep,
)
from tailcluster.core import (
    ClusterParams,
    ParseError,
    ValidationError,
    from_jsonable,
    resolve_params,
)
from tailcluster.simulate import SimModelSpec


def tiny_config(**overrides):
    base = dict(
        model="EXACT_PARETO",
        n=300,
        reps=3,
        master_seed=99,
        methods=METHODS,
        g=(2,),
        q=(2,),
        delta=(0.5,),
    )
    base.update(overrides)
    return SweepConfig(**base)


def strip_times(report: BenchReport):
    # everything except wall-time fields, for determinism comparisons
    return [
        (
            pt.model, pt.g, pt.q, pt.delta, pt.n, pt.k, pt.k_star, pt.beta,
            pt.defaults_used, pt.rep_seeds,
            [(c.method, c.accuracies, c.mses, c.failures) for c in pt.cells],
        )
        for pt in report.points
    ]


class TestSweepConfig:
    def test_validation(self):
        with pytest.raises(ValidationError):
            tiny_config(model="Z")
        with pytest.raises(ValidationError):
            tiny_config(reps=0)
        with pytest.raises(ValidationError, match="^n must be >= 2, got 1$"):
            tiny_config(n=1)
        with pytest.raises(ValidationError):
            tiny_config(methods=("proposed_unknown_g", "nope"))
        with pytest.raises(ValidationError):
            tiny_config(methods=("tail_kmeans", "tail_kmeans"))
        with pytest.raises(ValidationError):
            tiny_config(methods=("raw_hill", "raw_hill"))
        with pytest.raises(ValidationError, match="^methods must not be empty$"):
            tiny_config(methods=())

    def test_axes_coerced_to_tuples(self):
        cfg = tiny_config(g=[2, 3], delta=[0.5])
        assert cfg.g == (2, 3)
        assert cfg.delta == (0.5,)


class TestRunReplication:
    def test_consistency_regime_accuracy(self):
        # two well-separated exact-Pareto groups at n=2000: a clean sweep
        spec = SimModelSpec(model="EXACT_PARETO", g=2, q=5, delta=0.5, n=2000, seed=7)
        params = resolve_params(spec.p, spec.n)[0]
        out = run_replication(spec, params)
        assert out["proposed_unknown_g"].accuracy == 1.0
        assert out["proposed_known_g"].accuracy == 1.0
        assert out["proposed_unknown_g"].error is None

    def test_g_one_known_g_is_always_right(self):
        spec = SimModelSpec(model="A", g=1, q=4, delta=0.5, n=200, seed=3)
        params = resolve_params(spec.p, spec.n)[0]
        out = run_replication(spec, params, methods=("proposed_known_g",))
        assert out["proposed_known_g"].accuracy == 1.0

    def test_failure_recorded_not_raised(self):
        spec = SimModelSpec(model="EXACT_PARETO", g=2, q=1, delta=0.5, n=30, seed=1)
        # k_star and k both exceed what a 30-row matrix admits
        params = ClusterParams(k=40, k_star=50, beta=0.8)
        out = run_replication(spec, params, methods=(*METHODS, "raw_hill"))
        assert list(out) == [*METHODS, "raw_hill"]
        for result in out.values():
            assert result.error is not None
            assert result.accuracy is None
            assert result.mse is None

    def test_one_peel_serves_both_proposed_methods(self, monkeypatch):
        calls = []
        real = cluster_module.self_scale

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(cluster_module, "self_scale", counting)
        spec = SimModelSpec(model="EXACT_PARETO", g=2, q=3, delta=0.5, n=300, seed=4)
        out = run_replication(spec, resolve_params(spec.p, spec.n)[0])
        assert len(calls) == 1
        assert all(out[m].error is None for m in METHODS)

    @pytest.fixture
    def hill_calls(self, monkeypatch):
        # one entry per column estimate: a Hill pass is p of them
        calls = []
        real = hill_module._gamma

        def counting(arr, k, column=None):
            calls.append(k)
            return real(arr, k, column)

        monkeypatch.setattr(hill_module, "_gamma", counting)
        return calls

    @pytest.mark.parametrize("with_raw_hill", [False, True])
    def test_one_hill_pass_serves_every_method(self, hill_calls, with_raw_hill):
        spec = SimModelSpec(model="A", g=3, q=5, delta=0.5, n=400, seed=6)
        params = resolve_params(spec.p, spec.n)[0]
        methods = (*METHODS, "raw_hill") if with_raw_hill else METHODS
        out = run_replication(spec, params, methods)
        assert hill_calls == [params.k] * spec.p
        assert list(out) == list(methods)
        assert all(r.error is None for r in out.values())

    def test_failed_peel_recorded_for_both_proposed_methods(self):
        spec = SimModelSpec(model="EXACT_PARETO", g=2, q=3, delta=0.5, n=100, seed=4)
        # k_star >= n: a valid ClusterParams that no 100-row matrix admits
        out = run_replication(spec, ClusterParams(k=2, k_star=100, beta=0.8))
        for method in ("proposed_known_g", "proposed_unknown_g"):
            assert out[method].error == "ValidationError: k_star=100 must be <= n - 1 = 99"
        assert out["tail_kmeans"].error is None
        assert out["tail_kmeans"].accuracy is not None

    def test_raw_hill_extra(self):
        spec = SimModelSpec(model="EXACT_PARETO", g=2, q=2, delta=0.5, n=200, seed=5)
        params = resolve_params(spec.p, spec.n)[0]
        out = run_replication(spec, params, methods=("raw_hill",))
        assert list(out) == ["raw_hill"]
        assert out["raw_hill"].mse is not None
        assert out["raw_hill"].accuracy is None

    def test_unknown_method_recorded(self):
        spec = SimModelSpec(model="EXACT_PARETO", g=2, q=2, delta=0.5, n=200, seed=5)
        out = run_replication(spec, resolve_params(spec.p, spec.n)[0], methods=("x", "raw_hill"))
        assert out["x"] == bench.MethodResult(None, None, "ValidationError: unknown method 'x'",
                                              out["x"].seconds)
        assert out["raw_hill"].error is None


class TestRunSweep:
    def test_deterministic_given_master_seed(self):
        a = run_sweep(tiny_config())
        b = run_sweep(tiny_config())
        assert strip_times(a) == strip_times(b)

    def test_master_seed_changes_results(self):
        a = run_sweep(tiny_config())
        b = run_sweep(tiny_config(master_seed=100))
        assert strip_times(a) != strip_times(b)

    def test_parallel_equals_sequential(self):
        cfg = tiny_config(reps=4)
        seq = run_sweep(cfg, workers=1)
        par = run_sweep(cfg, workers=3)
        assert strip_times(seq) == strip_times(par)

    @pytest.fixture
    def pool_sizes(self, monkeypatch):
        # records each pool's size and runs its tasks in this process, so
        # no worker process is ever started
        sizes = []

        class RecordingExecutor:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, iterable, chunksize=1):
                return map(fn, iterable)

        monkeypatch.setattr(bench, "ProcessPoolExecutor", RecordingExecutor)
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        return sizes

    def test_pool_size_capped_by_tasks_and_cpus(self, pool_sizes):
        run_sweep(tiny_config(reps=3), workers=1000)
        run_sweep(tiny_config(reps=3), workers=2)
        run_sweep(tiny_config(reps=6), workers=1000)
        # two sweeps of 3 reps: one pool for their 6 replications
        run_sweep(tiny_config(reps=3), tiny_config(reps=3, g=(3,)), workers=1000)
        assert pool_sizes == [3, 2, 4, 4]

    @pytest.mark.parametrize("workers", [0, -1])
    def test_workers_below_one_rejected(self, pool_sizes, workers):
        with pytest.raises(ValidationError, match="workers"):
            run_sweep(tiny_config(), workers=workers)
        assert pool_sizes == []

    @pytest.fixture
    def replications(self, monkeypatch):
        calls = []
        real = bench.run_replication

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(bench, "run_replication", counting)
        return calls

    def test_bad_point_fails_before_any_replication(self, replications):
        with pytest.raises(ValidationError, match=r"delta must lie in \(0, 1\), got 1.5"):
            run_sweep(tiny_config(delta=(0.5, 1.5)))
        assert replications == []
        run_sweep(tiny_config(reps=2))
        assert len(replications) == 2

    def test_bad_later_sweep_fails_before_any_replication(self, replications):
        with pytest.raises(ValidationError, match="single-column"):
            run_sweep(tiny_config(), tiny_config(g=(1,), q=(1,)))
        assert replications == []

    def test_shared_design_shares_rep_seeds(self):
        # a pure tuning-parameter sweep reuses the same datasets per rep
        cfg = tiny_config(n=400, k=(3, 5), k_star=(50,), beta=(0.7,))
        report = run_sweep(cfg)
        assert len(report.points) == 2
        assert report.points[0].rep_seeds == report.points[1].rep_seeds
        assert report.points[0].k != report.points[1].k

    def test_defaults_recorded(self):
        report = run_sweep(tiny_config(reps=1))
        pt = report.points[0]
        want = resolve_params(4, 300)[0]
        assert (pt.k, pt.k_star, pt.beta) == (want.k, want.k_star, want.beta)
        assert pt.defaults_used == ("k", "k_star", "beta")

    def test_single_column_point_needs_explicit_params(self):
        with pytest.raises(ValidationError, match="k"):
            run_sweep(tiny_config(g=(1,), q=(1,)))

    def test_failures_counted_means_over_successes(self):
        # three one-column groups in 30 rows: every known-g peel runs out of columns
        cfg = tiny_config(
            n=30, reps=2, g=(3,), q=(1,), k=(2,), k_star=(10,), beta=(0.8,),
            methods=("proposed_known_g",),
        )
        report = run_sweep(cfg)
        cell = report.points[0].cells[0]
        assert [i for i, _ in cell.failures] == [0, 1]
        assert cell.mean_accuracy is None
        assert cell.mean_mse is None
        assert cell.accuracies == ()
        assert parse_report(emit_report(report, "json")) == report


class TestReports:
    def test_json_round_trip(self):
        report = run_sweep(tiny_config())
        again = parse_report(emit_report(report, "json"))
        assert again == report

    def test_csv_row_count_and_header(self):
        report = run_sweep(tiny_config(g=(2,), q=(2, 3)))
        lines = emit_report(report, "csv").decode().strip().split("\n")
        assert lines[0] == (
            "model,g,q,delta,n,k,k_star,beta,method,reps,failures,"
            "mean_accuracy,mean_mse"
        )
        assert len(lines) - 1 == 2 * len(METHODS)

    def test_csv_raw_hill_rows(self):
        report = run_sweep(tiny_config(methods=("proposed_unknown_g", "raw_hill")))
        lines = emit_report(report, "csv").decode().strip().split("\n")
        assert len(lines) - 1 == 2
        assert lines[-1].split(",")[8] == "raw_hill"

    def test_empty_sweep(self):
        report = run_sweep(tiny_config(g=()))
        assert report.points == ()
        assert json.loads(emit_report(report, "json"))["points"] == []
        assert emit_report(report, "csv").decode().strip().count("\n") == 0

    def test_report_numbers_pinned(self):
        # the CSV this sweep wrote before the means became derived
        report = run_sweep(tiny_config(reps=2, methods=(*METHODS, "raw_hill")))
        head = "EXACT_PARETO,2,2,0.5,300,4,267,0.6198501872659176"
        assert emit_report(report, "csv").decode() == (
            "model,g,q,delta,n,k,k_star,beta,method,reps,failures,mean_accuracy,mean_mse\n"
            f"{head},proposed_known_g,2,0,1.0,0.03502532978477241\n"
            f"{head},proposed_unknown_g,2,0,0.875,0.03517297686088086\n"
            f"{head},tail_kmeans,2,0,0.25,0.09963343921055824\n"
            f"{head},raw_hill,2,0,,0.06963543470348027\n"
        )

    def test_means_derived_from_raw_values(self):
        cell = MethodCell(
            method="proposed_unknown_g",
            accuracies=(0.5, 1.0),
            mses=(),
            failures=((2, "ActiveSetExhausted: ..."),),
            wall_time=0.0,
        )
        assert cell.mean_accuracy == 0.75
        assert cell.mean_mse is None
        assert "mean_accuracy" not in asdict(cell)

    def test_bad_format(self):
        report = run_sweep(tiny_config(reps=1))
        with pytest.raises(ValidationError):
            emit_report(report, "yaml")

    def test_schema_version_checked(self):
        report = run_sweep(tiny_config(reps=1))
        blob = json.loads(emit_report(report, "json"))
        blob["schema_version"] = 999
        with pytest.raises(ValidationError):
            parse_report(json.dumps(blob).encode())

    def test_v1_report_rejected_by_its_schema_version(self):
        # version 1 stored k_hill per point and the means per cell
        report = run_sweep(tiny_config(reps=1))
        blob = json.loads(emit_report(report, "json"))
        blob["schema_version"] = 1
        for pt in blob["points"]:
            pt["k_hill"] = pt["k"]
            for cell in pt["cells"]:
                cell["mean_accuracy"] = cell["accuracies"][0]
                cell["mean_mse"] = cell["mses"][0]
        with pytest.raises(ValidationError, match="^report schema_version is not 2$"):
            parse_report(json.dumps(blob).encode())

    def test_missing_field_named(self):
        report = run_sweep(tiny_config(reps=1))
        blob = json.loads(emit_report(report, "json"))
        del blob["points"][0]["k"]
        with pytest.raises(ParseError, match=r"report\.points\[0\]\.k: missing"):
            parse_report(json.dumps(blob).encode())
        # a (rep, error) pair of the wrong length
        blob = json.loads(emit_report(report, "json"))
        blob["points"][0]["cells"][0]["failures"] = [[1]]
        with pytest.raises(ParseError, match=r"failures\[0\]: expected a list of 2, got \[1\]$"):
            parse_report(json.dumps(blob).encode())

    def test_non_object_document(self):
        with pytest.raises(ParseError, match="report: expected an object"):
            parse_report(b"[1, 2]")
        with pytest.raises(ParseError, match=r"^report: invalid JSON \("):
            parse_report(b"{")


class TestMergeReports:
    # several sweeps make one report: run_sweep(a, b) is run_sweep(a) then run_sweep(b)
    def test_merges_points(self):
        a = tiny_config(g=(2,), methods=(*METHODS, "raw_hill"))
        b = replace(a, g=(3,))
        apart = [run_sweep(a), run_sweep(b)]
        for workers in (1, 2):
            merged = run_sweep(a, b, workers=workers)
            assert len(merged.points) == 2
            assert strip_times(merged) == strip_times(apart[0]) + strip_times(apart[1])
            for pt in merged.points:
                assert [c.method for c in pt.cells] == [*METHODS, "raw_hill"]
            assert replace(merged, points=(), wall_time_total=0.0) == replace(
                apart[0], points=(), wall_time_total=0.0
            )

    def test_rejects_template_mismatch(self):
        with pytest.raises(ValidationError) as exc:
            run_sweep(tiny_config(), tiny_config(master_seed=1))
        assert str(exc.value) == "sweep 1 differs from sweep 0 in master_seed: 1 != 99"
        with pytest.raises(ValidationError, match="no sweeps"):
            run_sweep()


class TestPresets:
    @pytest.fixture
    def bench_configs(self, monkeypatch, tmp_path):
        """The configs that `bench` with the given flags hands to run_sweep;
        nothing runs."""
        seen = []

        def capture(*configs, workers):
            seen.append(configs)
            head = configs[0]
            return BenchReport(head.model, head.n, head.reps, head.master_seed, head.methods, ())

        monkeypatch.setattr(cli, "run_sweep", capture)

        def run(*argv):
            assert cli.main(["bench", *argv, "--out", str(tmp_path / "b")]) == 0
            return seen.pop()

        return run

    def test_all_presets_build(self, bench_configs):
        for name, configs in PRESETS.items():
            assert configs, name
            assert all(c.reps == 100 and c.master_seed == DEFAULT_MASTER_SEED for c in configs)
            assert bench_configs("--preset", name) == configs
            overridden = bench_configs("--preset", name, "--reps", "5", "--seed", "123")
            assert overridden == tuple(replace(c, reps=5, master_seed=123) for c in configs)
            for cfg in overridden:
                assert cfg.reps == 5
                assert cfg.master_seed == 123
                assert cfg.model == "A"
                assert cfg.n == 2000

    def test_fig3_varies_one_parameter_per_config(self, bench_configs):
        k_cfg, beta_cfg, kstar_cfg = bench_configs("--preset", "fig3", "--reps", "2", "--seed", "1")
        assert len(k_cfg.k) > 1 and k_cfg.beta == (None,) and k_cfg.k_star == (None,)
        assert len(beta_cfg.beta) > 1 and beta_cfg.k == (None,)
        assert len(kstar_cfg.k_star) > 1 and kstar_cfg.k == (None,)

    def test_fig5_includes_raw_hill(self, bench_configs):
        (cfg,) = bench_configs("--preset", "fig5", "--reps", "2", "--seed", "1")
        assert cfg.methods == (*METHODS, "raw_hill")

    def test_fig5_report_methods_match_cells(self):
        (cfg,) = PRESETS["fig5"]
        report = run_sweep(replace(cfg, reps=1))
        assert len(report.points) == 12
        for pt in report.points:
            assert tuple(c.method for c in pt.cells) == report.methods

    def test_fig1_methods_unchanged(self):
        (cfg,) = PRESETS["fig1"]
        assert cfg.methods == ("proposed_known_g", "proposed_unknown_g", "tail_kmeans")

    def test_presets_survive_the_config_file_codec(self):
        # a preset written as a --config file decodes to the same sweep
        for name, configs in PRESETS.items():
            for i, cfg in enumerate(configs):
                doc = json.loads(json.dumps(asdict(cfg)))
                assert from_jsonable(SweepConfig, doc, f"{name}[{i}]") == cfg
