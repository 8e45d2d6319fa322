"""Layered benchmark of tailcluster: three workloads, end-to-end and per-layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is fig1_sweep, wide_matrix, price_pipeline, or `all` (each workload
in turn, in its own process, with a summary table). With --trace 0 the
run reports the end-to-end metrics; with --trace 1 it alternates
untraced and traced ops and reports the per-layer metrics, a self-time
table and the tracing overhead. The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}. Every run also
writes perfbench_out/<workload>-seed<N>-trace<T>.json with a provenance
stamp, the per-op samples and the check results.

Ops run one at a time, from this process; CLI ops start one child each
and nothing opens a pool. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from statistics import median
from time import perf_counter

# one op at a time: keep BLAS from spreading one op over both cores
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench_out"
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import tailcluster.cli  # noqa: E402,F401  (loads every layer module)

from tracing import LAYERS, OP_SPAN, OWN_LAYER, SpanTable, Tracer  # noqa: E402
from workloads import WORKLOADS, Context, Op  # noqa: E402

SETUP_REPEATS = 3

END_TO_END = {
    "sweep_reps_per_s": "1/s",
    "latency_p50_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "simulate.generate_s": "s",
    "simulate.generate_share": "ratio",
    "distributions.quantile_s": "s",
    "distributions.beta_s": "s",
    "distributions.quantile_points": "count",
    "distributions.cdf_evals_per_point": "ratio",
    "distributions.newton_sweeps_per_call": "ratio",
    "order_stats.self_scale_s": "s",
    "order_stats.pooled_s": "s",
    "order_stats.column_stat_calls": "count",
    "order_stats.bytes_selected": "B",
    "cluster.cluster_s": "s",
    "cluster.iterations": "count",
    "cluster.peak_alloc_mb": "MB",
    "hill.hill_s": "s",
    "hill.kmeans_s": "s",
    "hill.group_indices_s": "s",
    "hill.hill_calls_per_op": "count",
    "core.matrix_copies": "count",
    "core.bytes_copied": "B",
    "ingest.read_s": "s",
    "ingest.read_mb_per_s": "MB/s",
    "ingest.write_s": "s",
    "ingest.write_mb_per_s": "MB/s",
    "ingest.returns_s": "s",
    "bench.replication_s": "s",
    "bench.emit_s": "s",
    "bench.accuracy_known_g": "ratio",
    "bench.accuracy_unknown_g": "ratio",
    "cli.self_s": "s",
    **{f"{layer}.self_s": "s" for layer in LAYERS if layer not in ("cluster", "cli")},
    f"{OWN_LAYER}.self_s": "s",
    "trace.overhead_frac": "ratio",
}


def provenance(seed: int) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        commit = done.stdout.strip() or commit
    try:
        scipy_version = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy_version = "absent"
    blas = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
    return {
        "cpu_model": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "git_commit": commit,
        "seed": seed,
        "blas_threads_env": {v: os.environ.get(v) for v in blas},
    }


def import_seconds(ctx: Context) -> float:
    """Median wall time of a fresh interpreter importing tailcluster."""
    times = []
    for r in range(SETUP_REPEATS):
        wall, _, error = ctx.run_child([sys.executable, "-c", "import tailcluster"], f"import{r}.err")
        if error is not None:
            raise RuntimeError(f"tailcluster does not import: {error}")
        times.append(wall)
    return median(times)


def run_ops(workload, seconds: float, trace: bool):
    """The timed loop. Returns [(kind, Op)] with kind plain, traced or probe."""
    tracer = Tracer() if trace else None
    records = []
    t_start = perf_counter()
    while True:
        i = len(records)
        kind = "traced" if trace and i % 2 else "plain"
        records.append((kind, safe_op(workload, i, tracer if kind == "traced" else None)))
        if perf_counter() - t_start >= seconds and not (trace and len(records) % 2):
            break
    probe = Tracer(alloc_probe=True) if trace else None
    if trace:
        records.append(("probe", safe_op(workload, len(records), probe)))
    return records, tracer, probe


def safe_op(workload, i: int, tracer) -> Op:
    t0 = perf_counter()
    try:
        return workload.run_op(i, tracer)
    except Exception as exc:  # a raising op is recorded as failed; the run goes on
        return Op(perf_counter() - t0, 0.0, 0, f"{type(exc).__name__}: {exc}")


def end_to_end(ops, setup_s: float) -> dict:
    return {
        "sweep_reps_per_s": median(op.datasets / op.wall for op in ops),
        "latency_p50_s": median(op.wall for op in ops),
        "setup_s": setup_s,
        "peak_rss_mb": median(op.rss_mb for op in ops),
    }


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def _mean(values) -> float:
    values = [v for v in values if v is not None]
    return sum(values) / len(values) if values else 0.0


def per_layer(table: SpanTable, counters, n_ops: int, overhead: float, accuracies) -> dict:
    """Per-op layer metrics from the traced ops' spans; see README.md."""
    out = table.outer_time
    layer_self = table.layer_self()
    traced_wall = sum(layer_self.values())
    read = out({"ingest.read_data_csv", "ingest.read_price_csv"})
    write = out({"ingest.write_data_csv"})
    quantiles = {"distributions.student_t_quantile", "distributions.abs_student_t_quantile",
                 "distributions.frechet_quantile"}
    totals = {
        "simulate.generate_s": out({"simulate.generate"}),
        "distributions.quantile_s": out(quantiles),
        "distributions.beta_s": out({"distributions.reg_inc_beta"}),
        "distributions.quantile_points": counters["quantile_points"],
        "order_stats.self_scale_s": out({"order_stats.self_scale"}),
        "order_stats.pooled_s": out({"order_stats.pooled_upper_order_stat"}),
        "order_stats.column_stat_calls": table.count("order_stats.upper_order_stat", "cluster"),
        "order_stats.bytes_selected": counters["bytes_selected"],
        "cluster.cluster_s": layer_self["cluster"],
        "cluster.iterations": table.count("order_stats.pooled_upper_order_stat", "cluster"),
        "hill.hill_s": out({"hill.hill"}),
        "hill.kmeans_s": out({"hill.kmeans_1d_exact"}),
        "hill.group_indices_s": out({"hill.estimate_group_indices"}),
        "hill.hill_calls_per_op": table.count("hill.hill"),
        "core.matrix_copies": counters["matrix_copies"],
        "core.bytes_copied": counters["bytes_copied"],
        "ingest.read_s": read,
        "ingest.write_s": write,
        "ingest.returns_s": out({"ingest.returns"}),
        "bench.replication_s": out({"bench.run_replication"}),
        "bench.emit_s": out({"bench.emit_report"}),
        "cli.self_s": layer_self["cli"],
        **{f"{layer}.self_s": layer_self[layer] for layer in LAYERS if layer not in ("cluster", "cli")},
        f"{OWN_LAYER}.self_s": layer_self[OWN_LAYER],
    }
    metrics = {name: value / n_ops for name, value in totals.items()}
    metrics.update({
        "simulate.generate_share": _ratio(totals["simulate.generate_s"], traced_wall),
        "distributions.cdf_evals_per_point": _ratio(counters["cdf_points"], counters["quantile_points"]),
        "distributions.newton_sweeps_per_call": _ratio(counters["cdf_calls"], counters["quantile_calls"]),
        "cluster.peak_alloc_mb": counters["cluster_peak_alloc"] / 2**20,
        "ingest.read_mb_per_s": _ratio(counters["read_bytes"] / 1e6, read),
        "ingest.write_mb_per_s": _ratio(counters["write_bytes"] / 1e6, write),
        "bench.accuracy_known_g": _mean(accuracies["known_g"]),
        "bench.accuracy_unknown_g": _mean(accuracies["unknown_g"]),
        "trace.overhead_frac": overhead,
    })
    return {name: metrics[name] for name in PER_LAYER}


def print_layer_table(table: SpanTable, n_ops: int, traced_s: float, plain_s: float) -> None:
    layer_self = table.layer_self()
    total = sum(layer_self.values())
    print(f"{'layer':<14} {'self s/op':>10} {'share':>7}")
    for layer, t in layer_self.items():
        print(f"{layer:<14} {t / n_ops:>10.4f} {t / total:>7.1%}")
    op_spans = sum(d for d, nm in zip(table.durations, table.names) if nm == OP_SPAN)
    print(f"{'sum':<14} {total / n_ops:>10.4f}   (traced op wall {op_spans / n_ops:.4f} s/op)")
    print(f"tracing overhead: traced op median {traced_s:.4f} s vs untraced "
          f"{plain_s:.4f} s ({traced_s / plain_s - 1:+.1%})")


def run_workload(args) -> int:
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=OUT))
    ctx = Context(ROOT, workdir, args.seed, args.tiny, paired=bool(args.trace))
    workload = WORKLOADS[args.workload](ctx)
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        setup = {}
        if args.trace:
            workload.build()
        else:
            imports = import_seconds(ctx)
            builds = []
            for _ in range(SETUP_REPEATS):
                t0 = perf_counter()
                workload.build()
                builds.append(perf_counter() - t0)
            setup = {"import_s": imports, "build_s": builds,
                     "setup_s": imports + median(builds)}
        records, tracer, probe = run_ops(workload, args.seconds, bool(args.trace))
        for i, error in workload.finish().items():
            if records[i][1].error is None:
                records[i][1].error = error
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = [(i, op.error) for i, (_, op) in enumerate(records) if op.error is not None]
    plain = [op for kind, op in records if kind == "plain"]
    report = {
        "workload": args.workload,
        "provenance": provenance(args.seed),
        "args": {"seconds": args.seconds, "trace": args.trace, "tiny": args.tiny},
        "setup": setup,
        "ops": [{"kind": kind, **vars(op)} for kind, op in records],
    }
    print(f"== {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"({len(records)} ops, {len(failed)} failed)")
    for i, error in failed:
        print(f"CHECK FAILED op {i}: {error}")
    if args.trace:
        traced = [op for kind, op in records if kind == "traced"]
        table = SpanTable(tracer.spans)
        traced_s, plain_s = median(op.wall for op in traced), median(op.wall for op in plain)
        counters = tracer.counters
        counters["cluster_peak_alloc"] = probe.counters["cluster_peak_alloc"]
        metrics = per_layer(table, counters, len(traced), traced_s / plain_s - 1.0,
                            workload.accuracies)
        units, samples = PER_LAYER, len(traced)
        print_layer_table(table, len(traced), traced_s, plain_s)
        spans_path = stem.with_name(stem.name + "-spans.json")
        tracer.dump(spans_path)
        report["spans_file"] = spans_path.name
    else:
        metrics = end_to_end(plain, setup["setup_s"])
        units, samples = END_TO_END, len(plain)
    for name, value in metrics.items():
        n = SETUP_REPEATS if name == "setup_s" else samples
        print(f"{name:<40} {value:>14.6g} {units[name]:<6} (n={n})")
    print(f"failed_frac {len(failed)}/{len(records)} = {len(failed) / len(records):.3f}")
    result = {
        "correct": not failed,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    report["result"] = result
    report["checks"] = {"failed_ops": failed}
    stem.with_suffix(".json").write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, then one summary table."""
    summary, results = {}, []
    for name in WORKLOADS:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.tiny:
            argv.append("--tiny")
        done = subprocess.run(argv, capture_output=True, text=True, check=False)
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            print(f"{name}: exited {done.returncode}", file=sys.stderr)
            return done.returncode
        result = json.loads(done.stdout.strip().splitlines()[-1])
        results.append(result)
        for metric, value in result["metrics"].items():
            summary[f"{name}.{metric}"] = value
        print(f"{name}: correct={result['correct']} failed_frac="
              f"{result['failed']}/{result['attempted']}")
    print("== summary")
    for key, value in summary.items():
        print(f"{key:<52} {value['value']:>14.6g} {value['unit']}")
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": summary,
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="small shapes, for the self-test")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
