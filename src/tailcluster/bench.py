"""Replication harness: accuracy and MSE sweeps over simulated designs.

A sweep is the Cartesian product of axis values for (g, q, delta, k,
k_star, beta) at fixed (model, n). Each point runs `reps` replications;
each replication draws a dataset, runs the selected methods, and scores
order-aware accuracy plus the MSE of group-aggregated tail-index
estimates. Failed replications are first-class data: the error is
recorded, the failure is counted, and means are taken over successes.
One table maps each method name to its partition. A replication peels
its dataset once and runs one Hill pass: the data matrix memoises the
peel's trace and the Hill vector, so the known-g partition is read off
the unknown-g trace, and the baseline's k-means, every method's group
aggregation and raw_hill read the same vector. Each pass's time is
charged to the first method that needs it (its MethodCell.wall_time).

Seeding: the data seed of a replication is derived from the master seed
plus the data-generating design (model, g, q, delta, n) and the rep
index -- not from the point's position in the sweep. Two points that
share a design (for example a k sweep) therefore see identical
datasets, which pairs the comparison (common random numbers), while any
change to the design decouples the streams. Results are independent of
worker scheduling.

One report, one task list: run_sweep takes every sweep of a report (the
fig3 preset has three) and checks that they share the template fields.
It resolves and validates every point, and builds every replication's
SimModelSpec and ClusterParams, before any replication runs. The
replications then run as one task list keyed by (point, rep), in this
process or in one process pool. The presets are plain SweepConfig
tuples with reps=100 and the default master seed.

Every Hill step of a point, the baseline's and the aggregation's, uses
the point's clustering k.

Reports: the JSON form is core.SCHEMA_VERSION plus dataclasses.asdict of
the BenchReport, and parse_report decodes it with core.from_jsonable, as
the CLI does with sweep config files. It holds the raw values; the means
are derived from them (MethodCell properties, CSV columns).
"""

from __future__ import annotations

import io
import json
import os
import struct
import time
import zlib
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, replace
from itertools import product

import numpy as np

from . import __version__
from .cluster import cluster_known_g, cluster_unknown_g
from .core import (
    SCHEMA_VERSION,
    ClusterParams,
    ParseError,
    TailClusterError,
    ValidationError,
    accuracy,
    from_jsonable,
    mse,
    resolve_params,
)
from .hill import group_means, hill_gammas, tail_kmeans
from .simulate import MODELS, SimModelSpec, generate

__all__ = [
    "METHODS",
    "DEFAULT_MASTER_SEED",
    "SweepConfig",
    "MethodResult",
    "MethodCell",
    "PointReport",
    "BenchReport",
    "run_replication",
    "run_sweep",
    "emit_report",
    "parse_report",
    "PRESETS",
]

# a method's partition of (data, truth, params); raw_hill, last, scores the Hill vector itself
_PARTITION = {
    "proposed_known_g": lambda data, truth, params:
        cluster_known_g(data, params.with_known_g(truth.g))[0],
    "proposed_unknown_g": lambda data, truth, params: cluster_unknown_g(data, params)[0],
    "tail_kmeans": lambda data, truth, params: tail_kmeans(data, truth.g, params.k),
    "raw_hill": lambda data, truth, params: None,
}
METHODS = tuple(_PARTITION)[:-1]  # the clusterings

DEFAULT_MASTER_SEED = 314159


@dataclass(frozen=True)
class SweepConfig:
    """One sweep: a model/n template plus axis values and rep settings.

    Axis entries of None for k, k_star, or beta mean "use the
    dimension-driven default at that point" (k and k_star from the
    default formulas, beta recomputed from the effective k and k_star).
    """

    model: str
    n: int
    reps: int
    master_seed: int = DEFAULT_MASTER_SEED
    methods: tuple[str, ...] = ("proposed_unknown_g",)
    g: tuple[int, ...] = (3,)
    q: tuple[int, ...] = (15,)
    delta: tuple[float, ...] = (0.5,)
    k: tuple[int | None, ...] = (None,)
    k_star: tuple[int | None, ...] = (None,)
    beta: tuple[float | None, ...] = (None,)

    def __post_init__(self):
        if self.model not in MODELS:
            raise ValidationError(f"model must be one of {MODELS}, got {self.model!r}")
        if self.n < 2:
            raise ValidationError(f"n must be >= 2, got {self.n}")
        if self.reps < 1:
            raise ValidationError(f"reps must be >= 1, got {self.reps}")
        if self.master_seed < 0:
            raise ValidationError(f"master_seed must be >= 0, got {self.master_seed}")
        if not self.methods:
            raise ValidationError("methods must not be empty")
        bad = [m for m in self.methods if m not in _PARTITION]
        if bad:
            raise ValidationError(f"unknown methods {bad}; choose from {tuple(_PARTITION)}")
        if len(set(self.methods)) != len(self.methods):
            raise ValidationError("methods must not repeat")
        for name in ("g", "q", "delta", "k", "k_star", "beta"):
            axis = getattr(self, name)
            if not isinstance(axis, tuple):
                object.__setattr__(self, name, tuple(axis))
        object.__setattr__(self, "methods", tuple(self.methods))


@dataclass(frozen=True)
class MethodResult:
    """Outcome of one method on one replication."""

    accuracy: float | None
    mse: float | None
    error: str | None = None
    seconds: float = 0.0


def _rep_seed(master_seed: int, model: str, g: int, q: int, delta: float, n: int, rep: int) -> int:
    entropy = [
        int(master_seed),
        zlib.crc32(model.encode("utf-8")),
        int(g),
        int(q),
        struct.unpack("<Q", struct.pack("<d", float(delta)))[0],
        int(n),
        int(rep),
    ]
    return int(np.random.SeedSequence(entropy).generate_state(1, np.uint64)[0])


def run_replication(
    spec: SimModelSpec, params: ClusterParams, methods=METHODS
) -> dict[str, MethodResult]:
    """One dataset, every requested method, scored against the truth.

    A method that raises a domain error is recorded in its result's
    error field rather than aborting the replication. The "raw_hill"
    method carries the MSE of per-column Hill estimates without any
    grouping, and no accuracy.
    """
    data, truth = generate(spec)
    true_cols = truth.column_gammas()
    out: dict[str, MethodResult] = {}
    for method in methods:
        t0 = time.perf_counter()
        try:
            if method not in _PARTITION:
                raise ValidationError(f"unknown method {method!r}")
            part = _PARTITION[method](data, truth, params)
            gammas = hill_gammas(data, params.k)
            per_col = gammas if part is None else group_means(gammas, part)[1]
            out[method] = MethodResult(
                accuracy=None if part is None else accuracy(truth, part),
                mse=mse(true_cols, per_col),
                seconds=time.perf_counter() - t0,
            )
        except TailClusterError as exc:
            out[method] = MethodResult(
                None, None,
                error=f"{type(exc).__name__}: {exc}",
                seconds=time.perf_counter() - t0,
            )
    return out


@dataclass(frozen=True)
class MethodCell:
    """Aggregated results of one method at one sweep point."""

    method: str
    accuracies: tuple[float, ...]
    mses: tuple[float, ...]
    failures: tuple[tuple[int, str], ...]
    wall_time: float

    @property
    def mean_accuracy(self) -> float | None:
        """Mean over the successful replications, None when there are none."""
        return float(np.mean(self.accuracies)) if self.accuracies else None

    @property
    def mean_mse(self) -> float | None:
        """Mean over the successful replications, None when there are none."""
        return float(np.mean(self.mses)) if self.mses else None


@dataclass(frozen=True)
class PointReport:
    """Everything recorded at one point of the sweep grid."""

    model: str
    g: int
    q: int
    delta: float
    n: int
    k: int
    k_star: int
    beta: float
    defaults_used: tuple[str, ...]
    rep_seeds: tuple[int, ...]
    cells: tuple[MethodCell, ...]


@dataclass(frozen=True)
class BenchReport:
    """Sweep output: per-point per-method raw values."""

    model: str
    n: int
    reps: int
    master_seed: int
    methods: tuple[str, ...]
    points: tuple[PointReport, ...]
    version: str = __version__
    wall_time_total: float = 0.0


def _resolve_point(
    config: SweepConfig, g, q, delta, k, k_star, beta
) -> tuple[PointReport, ClusterParams]:
    """One point's report, with its rep seeds and no cells yet, and its params."""
    p = g * q
    # n0 = n: simulated data is all-positive by construction
    params, defaults_used = resolve_params(p, config.n, k=k, k_star=k_star, beta=beta)
    params.validate_for(config.n, p)
    point = PointReport(
        model=config.model,
        g=int(g),
        q=int(q),
        delta=float(delta),
        n=config.n,
        k=params.k,
        k_star=params.k_star,
        beta=params.beta,
        defaults_used=tuple(defaults_used),
        rep_seeds=tuple(
            _rep_seed(config.master_seed, config.model, g, q, delta, config.n, r)
            for r in range(config.reps)
        ),
        cells=(),
    )
    return point, params


def _task(args) -> dict[str, MethodResult]:
    """One (point, rep) unit of work: run_replication on prebuilt arguments."""
    return run_replication(*args)


# the fields that every sweep of one report must share
_TEMPLATE_FIELDS = ("model", "n", "reps", "master_seed", "methods")


def _shared_template(configs) -> dict:
    """The template fields shared by configs.

    Raises:
        ValidationError: there are no configs, or one differs from the
            first in a template field.
    """
    if not configs:
        raise ValidationError("no sweeps to run")
    head = {f: getattr(configs[0], f) for f in _TEMPLATE_FIELDS}
    for i, config in enumerate(configs[1:], start=1):
        for f, want in head.items():
            if getattr(config, f) != want:
                raise ValidationError(
                    f"sweep {i} differs from sweep 0 in {f}: {getattr(config, f)!r} != {want!r}"
                )
    return head


def run_sweep(*configs: SweepConfig, workers: int = 1) -> BenchReport:
    """Run every replication of every point of one or more sweeps: one report.

    The sweeps share the template fields (model, n, reps, master_seed,
    methods) and their points follow in order. Every point is resolved
    and every replication's spec and params built before any replication
    runs, so a bad point fails first. The replications run as one task
    list keyed by (point, rep): in this process, or with workers > 1 in
    one pool of min(workers, number of replications, CPU count)
    processes. The report is identical either way.

    Raises:
        ValidationError: workers is below 1, there are no configs, two
            differ in a template field, or a point is invalid.
    """
    if workers < 1:
        raise ValidationError(f"workers must be >= 1, got {workers}")
    t_start = time.perf_counter()
    template = _shared_template(configs)
    points: list[PointReport] = []
    tasks = {}
    for config in configs:
        for axes in product(config.g, config.q, config.delta, config.k, config.k_star, config.beta):
            point, params = _resolve_point(config, *axes)
            for rep, seed in enumerate(point.rep_seeds):
                spec = SimModelSpec(config.model, point.g, point.q, point.delta, config.n, seed)
                tasks[len(points), rep] = (spec, params, config.methods)
            points.append(point)
    pool_size = min(workers, len(tasks), os.cpu_count() or 1)
    if pool_size > 1:
        with ProcessPoolExecutor(max_workers=pool_size) as pool:
            raw = dict(zip(tasks, pool.map(_task, tasks.values(), chunksize=4)))
    else:
        raw = dict(zip(tasks, map(_task, tasks.values())))
    filled = []
    for pt_idx, point in enumerate(points):
        outs = [raw[pt_idx, rep] for rep in range(len(point.rep_seeds))]
        cells = []
        for method in template["methods"]:
            results = [out[method] for out in outs]
            # a failed result carries only its error: no accuracy, no mse
            cells.append(MethodCell(
                method=method,
                accuracies=tuple(r.accuracy for r in results if r.accuracy is not None),
                mses=tuple(r.mse for r in results if r.mse is not None),
                failures=tuple((i, r.error) for i, r in enumerate(results) if r.error is not None),
                wall_time=sum(r.seconds for r in results),
            ))
        filled.append(replace(point, cells=tuple(cells)))
    return BenchReport(
        **template,
        points=tuple(filled),
        wall_time_total=time.perf_counter() - t_start,
    )


CSV_COLUMNS = (
    "model,g,q,delta,n,k,k_star,beta,method,reps,failures,mean_accuracy,mean_mse"
)


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def emit_report(report: BenchReport, format: str) -> bytes:
    """Serialize a report: "json" nests everything, "csv" is one row per
    (point, method) in the fixed column order."""
    if format == "json":
        doc = {"schema_version": SCHEMA_VERSION, **asdict(report)}
        return json.dumps(doc, indent=2).encode("utf-8")
    if format != "csv":
        raise ValidationError(f"format must be 'json' or 'csv', got {format!r}")
    buf = io.StringIO()
    buf.write(CSV_COLUMNS + "\n")
    for pt in report.points:
        for cell in pt.cells:
            row = [
                pt.model, pt.g, pt.q, pt.delta, pt.n, pt.k, pt.k_star, pt.beta,
                cell.method, report.reps, len(cell.failures),
                cell.mean_accuracy, cell.mean_mse,
            ]
            buf.write(",".join(_fmt(v) for v in row) + "\n")
    return buf.getvalue().encode("utf-8")


def parse_report(blob: bytes) -> BenchReport:
    """Inverse of emit_report for the JSON format.

    Raises ParseError, naming the field's path, on malformed JSON or a
    missing, unknown or mistyped field, and ValidationError on another
    schema_version.
    """
    try:
        doc = json.loads(blob)
    except ValueError as exc:
        raise ParseError(f"report: invalid JSON ({exc})") from None
    if isinstance(doc, dict) and doc.pop("schema_version", None) != SCHEMA_VERSION:
        raise ValidationError(f"report schema_version is not {SCHEMA_VERSION}")
    return from_jsonable(BenchReport, doc, "report")

_FIG1 = SweepConfig(
    model="A", n=2000, reps=100, methods=METHODS, g=(3, 4, 5), q=(5, 10, 15, 20)
)
_Q15 = replace(_FIG1, q=(15,))

PRESETS: dict[str, tuple[SweepConfig, ...]] = {
    "fig1": (_FIG1,),
    "fig2": (replace(_Q15, delta=(0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)),),
    # one tuning parameter varies per sweep, the others at their defaults
    "fig3": (
        replace(_Q15, k=(4, 8, 12, 16, 24, 32)),
        replace(_Q15, beta=(0.55, 0.65, 0.75, 0.85, 0.95)),
        replace(_Q15, k_star=(600, 1000, 1400, 1717, 1950)),
    ),
    "fig5": (replace(_FIG1, methods=tuple(_PARTITION)),),
}
