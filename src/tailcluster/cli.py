"""Command-line interface.

Subcommands:
    cluster    cluster the columns of a CSV by tail heaviness
    hill       per-column tail-index estimates with confidence bands
    simulate   draw a synthetic dataset and write CSV + JSON sidecar
    bench      run a replication sweep and write JSON + CSV reports
    returns    convert a price table to loss returns

Exit codes: 0 success, 2 input could not be parsed, 3 input failed
validation, 4 runtime failure. Relative output paths are resolved
against $TAILCLUSTER_OUTPUT_DIR when it is set.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from . import __version__
from .bench import PRESETS, SweepConfig, emit_report, run_sweep
from .cluster import cluster_known_g, cluster_unknown_g
from .core import (
    SCHEMA_VERSION,
    DataMatrix,
    ParseError,
    TailClusterError,
    TailPartition,
    ValidationError,
    from_jsonable,
    resolve_params,
)
from .hill import group_means, hill_bands, hill_gammas
from .ingest import min_positive_count, read_data_csv, read_price_csv, read_text, returns, write_data_csv
from .simulate import MODELS, SimModelSpec, generate


def _out_path(name: str) -> Path:
    path = Path(name)
    if path.is_absolute():
        return path
    base = os.environ.get("TAILCLUSTER_OUTPUT_DIR")
    return (Path(base) / path) if base else path


def _bands(gammas: np.ndarray, k: int, level: float) -> list[dict]:
    low, high = hill_bands(gammas, k, level)
    return [
        {"gamma_hat": v, "k_used": k, "ci_low": lo, "ci_high": hi, "ci_method": "asymptotic_normal"}
        for v, lo, hi in zip(gammas.tolist(), low.tolist(), high.tolist())
    ]


def _column_payload(data: DataMatrix, partition: TailPartition, k_hill: int, level: float):
    gammas = hill_gammas(data, k_hill)
    group_gammas, per_col = group_means(gammas, partition)
    labels = partition.labels()
    columns = [
        {
            "label": data.label_of(j),
            "group": int(labels[j - 1]),
            "group_gamma": float(per_col[j - 1]),
            "hill": band,
        }
        for j, band in enumerate(_bands(gammas, k_hill, level), start=1)
    ]
    return [float(v) for v in group_gammas], columns


def _emit(text: str, output: str | None) -> None:
    if output:
        path = _out_path(output)
        path.write_text(text + "\n", encoding="utf-8")
        print(f"wrote {path}")
    else:
        print(text)


def cmd_cluster(args) -> int:
    hill_bands(np.empty(0), 1, args.ci)  # a bad --ci fails here, before any work
    data = read_data_csv(args.input)
    n0 = min_positive_count(data)
    params, defaults_used = resolve_params(
        data.p, n0, k=args.k, k_star=args.k_star, beta=args.beta
    )
    if args.known_g is not None:
        partition, trace = cluster_known_g(data, params.with_known_g(args.known_g))
    else:
        partition, trace = cluster_unknown_g(data, params)
    k_hill = args.k_hill if args.k_hill is not None else params.k
    group_gammas, columns = _column_payload(data, partition, k_hill, args.ci)
    name = data.label_of
    payload = {
        "schema_version": SCHEMA_VERSION,
        "n": data.n,
        "p": data.p,
        "n0": n0,
        "params": {
            "k": params.k,
            "k_star": params.k_star,
            "beta": params.beta,
            "k_hill": k_hill,
            "known_g": args.known_g,
            "defaults_used": list(defaults_used),
        },
        "num_groups": partition.num_groups,
        "groups": [[name(j) for j in grp] for grp in partition.groups],
        "group_indices": [list(grp) for grp in partition.groups],
        "group_gammas": group_gammas,
        "columns": columns,
        "trace": [
            {
                "active": [name(j) for j in step.active],
                "threshold": step.threshold,
                "column_stats": {name(j): v for j, v in step.column_stats.items()},
                "extracted": [name(j) for j in step.extracted],
            }
            for step in trace.steps
        ],
    }
    _emit(json.dumps(payload, indent=2), args.output)
    return 0


def cmd_hill(args) -> int:
    hill_bands(np.empty(0), 1, args.ci)  # a bad --ci fails here, before any work
    data = read_data_csv(args.input)
    if args.k is not None:
        k = args.k
    else:
        params, _ = resolve_params(data.p, min_positive_count(data))
        k = params.k
    bands = _bands(hill_gammas(data, k), k, args.ci)
    if args.format == "csv":
        lines = ["label,gamma_hat,k_used,ci_low,ci_high"]
        for j, band in enumerate(bands, start=1):
            lines.append(
                f"{data.label_of(j)},{band['gamma_hat']!r},{band['k_used']},"
                f"{band['ci_low']!r},{band['ci_high']!r}"
            )
        _emit("\n".join(lines), args.output)
        return 0
    payload = {
        "schema_version": SCHEMA_VERSION,
        "k": k,
        "level": args.ci,
        "columns": [
            {"label": data.label_of(j), **band}
            for j, band in enumerate(bands, start=1)
        ],
    }
    _emit(json.dumps(payload, indent=2), args.output)
    return 0


def cmd_simulate(args) -> int:
    spec = SimModelSpec(
        model=args.model, g=args.g, q=args.q, delta=args.delta, n=args.n, seed=args.seed
    )
    data, truth = generate(spec)
    csv_path = _out_path(args.out + ".csv")
    json_path = _out_path(args.out + ".json")
    write_data_csv(data, csv_path)
    sidecar = {
        "schema_version": SCHEMA_VERSION,
        "spec": {**asdict(spec), "p": spec.p},
        "truth": {
            "labels": [int(c) for c in truth.group_of],
            "gammas": [float(v) for v in truth.gammas],
        },
        "oracle_only": spec.model == "EXACT_PARETO",
    }
    json_path.write_text(json.dumps(sidecar, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {csv_path}")
    print(f"wrote {json_path}")
    return 0


def _configs_from_file(path: str) -> list[SweepConfig]:
    try:
        raw = json.loads(read_text(path))
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON ({exc})") from None
    docs = raw if isinstance(raw, list) else [raw]
    return [from_jsonable(SweepConfig, doc, f"{path}: config {i}") for i, doc in enumerate(docs)]


def cmd_bench(args) -> int:
    configs = PRESETS[args.preset] if args.preset else _configs_from_file(args.config)
    overrides = {
        field: value
        for field, value in (("reps", args.reps), ("master_seed", args.seed))
        if value is not None
    }
    report = run_sweep(*(replace(c, **overrides) for c in configs), workers=args.workers)
    json_path = _out_path(args.out + ".json")
    csv_path = _out_path(args.out + ".csv")
    json_path.write_bytes(emit_report(report, "json"))
    csv_path.write_bytes(emit_report(report, "csv"))
    print(f"wrote {json_path}")
    print(f"wrote {csv_path}")
    header = f"{'g':>3} {'q':>4} {'delta':>6} {'k':>4} {'k*':>5} {'beta':>6}  {'method':<20} {'acc':>7} {'mse':>9} {'fail':>4}"
    print(header)
    for pt in report.points:
        for cell in pt.cells:
            acc = f"{cell.mean_accuracy:.4f}" if cell.mean_accuracy is not None else "-"
            msev = f"{cell.mean_mse:.5f}" if cell.mean_mse is not None else "-"
            print(
                f"{pt.g:>3} {pt.q:>4} {pt.delta:>6} {pt.k:>4} {pt.k_star:>5} "
                f"{pt.beta:>6.4f}  {cell.method:<20} {acc:>7} {msev:>9} "
                f"{len(cell.failures):>4}"
            )
    return 0


def cmd_returns(args) -> int:
    data = returns(read_price_csv(args.input))
    path = _out_path(args.output)
    write_data_csv(data, path)
    print(f"wrote {path} ({data.n} return rows, {data.p} series)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tailcluster",
        description="Cluster heavy-tailed variables by extreme value index.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    pc = sub.add_parser("cluster", help="cluster the columns of a CSV by tail heaviness")
    pc.add_argument("input", help="data matrix CSV (convert a price table with `returns` first)")
    mode = pc.add_mutually_exclusive_group(required=True)
    mode.add_argument("--known-g", type=int, dest="known_g", metavar="G",
                      help="number of groups, known in advance")
    mode.add_argument("--auto-g", action="store_true",
                      help="discover the number of groups from the data")
    pc.add_argument("--k", type=int, help="pooled-quantile rank (default: formula)")
    pc.add_argument("--k-star", type=int, dest="k_star",
                    help="self-scaling rank (default: formula)")
    pc.add_argument("--beta", type=float, help="quantile fraction (default: formula)")
    pc.add_argument("--k-hill", type=int, dest="k_hill",
                    help="k for the reported Hill estimates (default: k)")
    pc.add_argument("--ci", type=float, default=0.95, metavar="LEVEL",
                    help="confidence level for Hill bands (default 0.95)")
    pc.add_argument("--output", "-o", help="write the JSON result here instead of stdout")
    pc.set_defaults(func=cmd_cluster)

    ph = sub.add_parser("hill", help="per-column tail-index estimates with bands")
    ph.add_argument("input")
    ph.add_argument("--k", type=int, help="number of top order statistics (default: formula)")
    ph.add_argument("--ci", type=float, default=0.95, metavar="LEVEL")
    ph.add_argument("--format", choices=("json", "csv"), default="json")
    ph.add_argument("--output", "-o")
    ph.set_defaults(func=cmd_hill)

    ps = sub.add_parser("simulate", help="draw a synthetic dataset")
    ps.add_argument("--model", required=True, choices=MODELS)
    ps.add_argument("--g", type=int, required=True, help="number of groups")
    ps.add_argument("--q", type=int, required=True, help="columns per group")
    ps.add_argument("--delta", type=float, required=True, help="separation in (0,1)")
    ps.add_argument("--n", type=int, required=True, help="rows")
    ps.add_argument("--seed", type=int, required=True)
    ps.add_argument("--out", default="sim", metavar="BASE",
                    help="basename for BASE.csv and BASE.json (default 'sim')")
    ps.set_defaults(func=cmd_simulate)

    pb = sub.add_parser("bench", help="run a replication sweep")
    src = pb.add_mutually_exclusive_group(required=True)
    src.add_argument("--preset", choices=sorted(PRESETS))
    src.add_argument("--config", help="JSON file with one sweep or a list of sweeps")
    pb.add_argument("--reps", type=int, help="replications per point")
    pb.add_argument("--seed", type=int, help="master seed (default: the config's)")
    pb.add_argument("--workers", type=int, default=1)
    pb.add_argument("--out", default="bench", metavar="BASE",
                    help="basename for BASE.json and BASE.csv (default 'bench')")
    pb.set_defaults(func=cmd_bench)

    pr = sub.add_parser("returns", help="price table CSV to loss-returns CSV")
    pr.add_argument("input")
    pr.add_argument("--output", "-o", required=True)
    pr.set_defaults(func=cmd_returns)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (TailClusterError, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
