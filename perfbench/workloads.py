"""The three workloads: inputs from a seed, one op, and output checks.

Each workload object has
    build()                    make the inputs (timed, repeated for setup_s)
    run_op(i, tracer=None)     run op i; returns an Op
    finish()                   checks deferred to after the timed loop;
                               returns {op index: error}
    accuracies                 {"known_g": [...], "unknown_g": [...]}

An op that raises, exits non-zero, or fails its output check is failed.
No check compares digests of generated data, so the checks survive a
change of the generators' random streams.
"""

from __future__ import annotations

import json
import math
import os
import resource
import struct
import subprocess
import sys
import zlib
from dataclasses import dataclass
from datetime import date, timedelta
from pathlib import Path
from time import perf_counter

import numpy as np
from tracing import OP_SPAN

HERE = Path(__file__).resolve().parent


@dataclass
class Op:
    wall: float            # seconds the op took
    rss_mb: float          # peak RSS of the process(es) doing the work
    datasets: int          # datasets taken through the methods
    error: str | None = None


class Context:
    """Where a run keeps its files and how it starts children."""

    def __init__(self, root: Path, workdir: Path, seed: int, tiny: bool, paired: bool):
        self.workdir = workdir
        self.seed = seed
        self.tiny = tiny
        self.paired = paired
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.env.pop("TAILCLUSTER_OUTPUT_DIR", None)

    def input_of(self, i: int) -> int:
        """Input index of op i; paired (traced, untraced) ops share inputs."""
        return i // 2 if self.paired else i

    def sub_seed(self, *path: int) -> int:
        return int(np.random.SeedSequence([self.seed, *path]).generate_state(1)[0])

    def run_child(self, argv, log_name: str):
        """Run argv to completion; return (wall s, peak RSS MB, error or None)."""
        log = self.workdir / log_name
        t0 = perf_counter()
        with open(log, "wb") as err:
            proc = subprocess.Popen(argv, cwd=self.workdir, env=self.env,
                                    stdout=subprocess.DEVNULL, stderr=err)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
        wall = perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        error = None
        if proc.returncode != 0:
            tail = log.read_text(encoding="utf-8", errors="replace").strip()[-400:]
            error = f"exit {proc.returncode}: {tail}"
        return wall, usage.ru_maxrss / 1024.0, error

    def cli_op(self, cli_args, tracer, tag: str):
        """One CLI child, traced through traced_cli.py when a tracer is given."""
        if tracer is None:
            return self.run_child([sys.executable, "-m", "tailcluster.cli", *cli_args], f"{tag}.err")
        spans = self.workdir / f"{tag}.spans.json"
        flags = ["--alloc-probe"] if tracer.alloc_probe else []
        argv = [sys.executable, str(HERE / "traced_cli.py"), str(spans), *flags, "--", *cli_args]
        idx = tracer.open(OP_SPAN)
        try:
            result = self.run_child(argv, f"{tag}.err")
        finally:
            tracer.close(idx)
        if spans.exists():
            tracer.adopt(spans, idx)
            spans.unlink()
        return result


def _tc(module: str = ""):
    # modules come from sys.modules: tailcluster.hill is shadowed by the function
    return sys.modules["tailcluster" + (f".{module}" if module else "")]


def _in_process(tracer, fn):
    """Run fn, inside one benchmark.op span with the tracer installed if given."""
    if tracer is None:
        t0 = perf_counter()
        out = fn()
        return perf_counter() - t0, out
    tracer.install()
    idx = tracer.open(OP_SPAN)
    try:
        out = fn()
    finally:
        tracer.close(idx)
        tracer.uninstall()
    span = tracer.spans[idx]
    return span[2] - span[1], out


# --------------------------------------------------------------------------
# fig1_sweep


def expected_rep_seed(master: int, model: str, g: int, q: int, delta: float, n: int, rep: int) -> int:
    """The replication seed that bench's documented derivation implies."""
    entropy = [master, zlib.crc32(model.encode("utf-8")), g, q,
               struct.unpack("<Q", struct.pack("<d", delta))[0], n, rep]
    return int(np.random.SeedSequence(entropy).generate_state(1, np.uint64)[0])


class Fig1Sweep:
    """`tailcluster bench --preset fig1` as a child process."""

    name = "fig1_sweep"
    GRID = [(g, q) for g in (3, 4, 5) for q in (5, 10, 15, 20)]
    METHODS = ("proposed_known_g", "proposed_unknown_g", "tail_kmeans")

    def __init__(self, ctx: Context):
        self.ctx = ctx
        self.reps = 1
        self.accuracies = {"known_g": [], "unknown_g": []}

    def build(self) -> None:
        """The sweep draws its own data inside the op; nothing to prepare."""

    def run_op(self, i: int, tracer=None) -> Op:
        master = self.ctx.sub_seed(1, self.ctx.input_of(i))
        base = self.ctx.workdir / "sweep"
        for path in (base.with_suffix(".json"), base.with_suffix(".csv")):
            path.unlink(missing_ok=True)
        args = ["bench", "--preset", "fig1", "--reps", str(self.reps), "--seed", str(master),
                "--workers", "1", "--out", str(base)]
        wall, rss, error = self.ctx.cli_op(args, tracer, f"sweep{i}")
        datasets = len(self.GRID) * self.reps
        if error is None:
            error = self._check(base, master)
        return Op(wall, rss, datasets, error)

    def _check(self, base: Path, master: int) -> str | None:
        bench = _tc("bench")
        try:
            report = bench.parse_report(base.with_suffix(".json").read_bytes())
        except (OSError, ValueError, KeyError) as exc:
            return f"report does not parse: {exc}"
        if (report.model, report.n, report.reps, report.master_seed) != ("A", 2000, self.reps, master):
            return "report template differs from the fig1 preset"
        if [(pt.g, pt.q) for pt in report.points] != self.GRID:
            return "report points differ from the fig1 grid"
        rows = base.with_suffix(".csv").read_text(encoding="utf-8").splitlines()
        if rows[0] != bench.CSV_COLUMNS or len(rows) != 1 + len(self.GRID) * len(self.METHODS):
            return "CSV header or row count differs from the report"
        row = iter(rows[1:])
        for pt in report.points:
            want = [expected_rep_seed(master, "A", pt.g, pt.q, 0.5, 2000, r) for r in range(self.reps)]
            if list(pt.rep_seeds) != want:
                return f"rep_seeds of point g={pt.g} q={pt.q} are not the master seed's"
            if tuple(c.method for c in pt.cells) != self.METHODS:
                return f"point g={pt.g} q={pt.q} lacks a method"
            for cell in pt.cells:
                if cell.failures:
                    return f"{cell.method} failed at g={pt.g} q={pt.q}: {cell.failures[0]}"
                fields = next(row).split(",")
                want_fields = [pt.model, pt.g, pt.q, pt.delta, pt.n, pt.k, pt.k_star, pt.beta,
                               cell.method, report.reps, 0, cell.mean_accuracy, cell.mean_mse]
                for got, exp in zip(fields, want_fields):
                    same = got == exp if isinstance(exp, str) else float(got) == exp
                    if not same:
                        return f"CSV disagrees with JSON at g={pt.g} q={pt.q} {cell.method}"
            accs = {c.method: c.mean_accuracy for c in pt.cells}
            self.accuracies["known_g"].append(accs["proposed_known_g"])
            self.accuracies["unknown_g"].append(accs["proposed_unknown_g"])
        return None

    def finish(self) -> dict[int, str]:
        return {}


# --------------------------------------------------------------------------
# wide_matrix


MIN_KNOWN_G_ACCURACY = 0.99


class WideMatrix:
    """The fig1 method set on pre-generated A_F matrices, in process."""

    name = "wide_matrix"

    def __init__(self, ctx: Context):
        self.ctx = ctx
        if ctx.tiny:
            self.n, self.g, self.q, count = 2000, 5, 20, 1
        else:
            self.n, self.g, self.q, count = 20000, 5, 100, 3
        self.delta = 0.5
        self.seeds = [ctx.sub_seed(2, m) for m in range(count)]
        self.truth = _tc().truth_from_design(self.g, self.q, self.delta)
        self.params = None
        self.step1: list = []  # (op, matrix, method, threshold, stats)
        self.accuracies = {"known_g": [], "unknown_g": []}

    def _path(self, m: int) -> Path:
        return self.ctx.workdir / f"A_F-{self.seeds[m]}.npy"

    def build(self) -> None:
        argv = [sys.executable, str(HERE / "gen_matrix.py"), str(self.ctx.workdir),
                str(self.n), str(self.g), str(self.q), str(self.delta), *map(str, self.seeds)]
        _, _, error = self.ctx.run_child(argv, "gen_matrix.err")
        if error is not None:
            raise RuntimeError(f"input generation failed: {error}")

    def run_op(self, i: int, tracer=None) -> Op:
        tc = _tc()
        m = self.ctx.input_of(i) % len(self.seeds)
        data = tc.DataMatrix(np.load(self._path(m)))
        g = self.g

        def methods():
            params, _ = tc.resolve_params(data.p, data.n)
            known, known_trace = tc.cluster_known_g(data, params.with_known_g(g))
            tc.estimate_group_indices(data, known, params.k)
            unknown, unknown_trace = tc.cluster_unknown_g(data, params)
            tc.estimate_group_indices(data, unknown, params.k)
            kmeans = tc.tail_kmeans(data, g, params.k)
            tc.estimate_group_indices(data, kmeans, params.k)
            return params, known, known_trace, unknown, unknown_trace

        wall, (params, known, known_trace, unknown, unknown_trace) = _in_process(tracer, methods)
        rss = _self_rss_mb()
        self.params = params
        known_accuracy = tc.accuracy(self.truth, known)
        self.accuracies["known_g"].append(known_accuracy)
        self.accuracies["unknown_g"].append(tc.accuracy(self.truth, unknown))
        error = None
        # statistical, not exact: about 1 matrix in 25 at the full shape
        # puts one column of 500 in a neighbouring group
        if known.num_groups != g or known_accuracy < MIN_KNOWN_G_ACCURACY:
            error = f"known-g partition is far from the ground truth (accuracy {known_accuracy})"
        for method, trace in (("known_g", known_trace), ("unknown_g", unknown_trace)):
            for step in trace.steps:
                want = tuple(j for j in step.active if step.column_stats[j] >= step.threshold)
                if set(step.column_stats) != set(step.active) or step.extracted != want:
                    error = f"{method} trace step disagrees with its extracted group"
            first = trace.steps[0]
            stats = np.array([first.column_stats[j] for j in range(1, data.p + 1)])
            self.step1.append((i, m, method, first.threshold, stats))
        return Op(wall, rss, 1, error)

    def finish(self) -> dict[int, str]:
        """Step 1 against a plain np.sort oracle on the raw matrix, bit for bit."""
        errors = {}
        params = self.params
        for m in sorted({rec[1] for rec in self.step1}):
            values = np.load(self._path(m))
            n, p = values.shape
            ordered = np.sort(values, axis=0)
            denoms = ordered[n - 1 - params.k_star]
            pooled = np.sort(values / denoms, axis=None)
            threshold = pooled[n * p - params.k * p]
            stats = (ordered / denoms)[n - 1 - math.floor(params.beta * params.k)]
            for i, mm, method, thr, got in self.step1:
                if mm != m:
                    continue
                if thr != threshold:
                    errors[i] = f"{method} step-1 threshold {thr!r} != oracle {threshold!r}"
                elif not np.array_equal(got, stats):
                    errors[i] = f"{method} step-1 column statistics differ from the oracle"
        return errors


def _self_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# --------------------------------------------------------------------------
# price_pipeline

# log-prices are kept inside [-_LOG_BAND, _LOG_BAND] so every price is a
# finite positive double; a step is capped at the band so the walk can
# always turn back (this clips about one Cauchy draw per table)
_LOG_BAND = 600.0


class PricePipeline:
    """`tailcluster returns` then `tailcluster cluster --auto-g`, as children."""

    name = "price_pipeline"

    def __init__(self, ctx: Context):
        self.ctx = ctx
        self.rows, self.g, self.q = (300, 5, 4) if ctx.tiny else (3000, 5, 40)
        self.delta = 0.5
        self.truth = _tc().truth_from_design(self.g, self.q, self.delta)
        self.accuracies = {"known_g": [], "unknown_g": []}
        self._oracle_groups: dict = {}

    def build(self) -> None:
        tc = _tc()
        rng = np.random.default_rng([self.ctx.seed, 3])
        spec = tc.SimModelSpec("B", self.g, self.q, self.delta, self.rows - 1, self.ctx.sub_seed(3))
        data, _ = tc.generate(spec)
        steps = np.minimum(0.01 * data.values, _LOG_BAND)
        signs = rng.choice((-1.0, 1.0), size=steps.shape)
        logp = np.empty((self.rows, data.p))
        logp[0] = math.log(100.0)
        for t in range(1, self.rows):
            prev = logp[t - 1]
            nxt = prev + signs[t - 1] * steps[t - 1]
            back = prev - np.sign(prev) * steps[t - 1]
            logp[t] = np.where(np.abs(nxt) > _LOG_BAND, back, nxt)
        prices = np.exp(logp)
        # about 1% of cells missing, on holiday-like dates: 3% of the rows
        # each lose a third of the series, so listwise deletion keeps 97%
        holes = rng.random(self.rows) < 0.03
        prices[holes[:, None] & (rng.random(prices.shape) < 1 / 3)] = np.nan
        self.names = [f"V{j}" for j in range(1, data.p + 1)]
        day0 = date(2000, 1, 3)
        lines = ["date," + ",".join(self.names)]
        for t in range(self.rows):
            cells = ("NA" if math.isnan(v) else repr(v) for v in prices[t].tolist())
            lines.append((day0 + timedelta(days=t)).isoformat() + "," + ",".join(cells))
        self.price_csv = self.ctx.workdir / "prices.csv"
        self.price_csv.write_text("\n".join(lines) + "\n", encoding="utf-8")
        kept = prices[~np.isnan(prices).any(axis=1)]
        self.expected_returns = -np.diff(np.log(kept), axis=0)

    def run_op(self, i: int, tracer=None) -> Op:
        ret, res = self.ctx.workdir / "ret.csv", self.ctx.workdir / "res.json"
        for path in (ret, res):
            path.unlink(missing_ok=True)
        wall1, rss1, error = self.ctx.cli_op(
            ["returns", str(self.price_csv), "-o", str(ret)], tracer, f"returns{i}")
        wall2, rss2 = 0.0, 0.0
        if error is None:
            wall2, rss2, error = self.ctx.cli_op(
                ["cluster", str(ret), "--auto-g", "-o", str(res)], tracer, f"cluster{i}")
        if error is None:
            error = self._check(ret, res)
        return Op(wall1 + wall2, max(rss1, rss2), 1, error)

    def _check(self, ret: Path, res: Path) -> str | None:
        tc = _tc()
        with open(ret, encoding="utf-8") as fh:
            header = fh.readline().strip().split(",")
        values = np.loadtxt(ret, delimiter=",", skiprows=1, ndmin=2)
        if header != self.names:
            return "ret.csv header differs from the series names"
        if not np.array_equal(values, self.expected_returns):
            return "ret.csv differs from -diff(log P) of the complete rows"
        doc = json.loads(res.read_text(encoding="utf-8"))
        par = doc["params"]
        key = (par["k"], par["k_star"], par["beta"])
        if key not in self._oracle_groups:
            params = tc.ClusterParams(k=key[0], k_star=key[1], beta=key[2])
            part, _ = tc.cluster_unknown_g(tc.DataMatrix(values, tuple(header)), params)
            self._oracle_groups[key] = [[header[j - 1] for j in grp] for grp in part.groups]
        if doc["groups"] != self._oracle_groups[key]:
            return "res.json groups differ from cluster_unknown_g on ret.csv"
        part = tc.TailPartition(tuple(tuple(grp) for grp in doc["group_indices"]))
        self.accuracies["unknown_g"].append(tc.accuracy(self.truth, part))
        return None

    def finish(self) -> dict[int, str]:
        return {}


WORKLOADS = {cls.name: cls for cls in (Fig1Sweep, WideMatrix, PricePipeline)}
