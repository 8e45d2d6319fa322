"""Span tracing of tailcluster's layers, installed from outside the package.

A Tracer wraps the public functions of every layer module (and the
__post_init__ of every public dataclass, where validation and copies
happen) and records one span per call: (name, start, end, parent). Spans
stay in memory until the caller writes them out. Counters that turn
spans into ratios (points per quantile call, bytes selected, file sizes)
are taken at the same boundaries.

The package binds names with `from .x import y`, so wrapping a function
in its defining module is not enough: every module namespace that holds
the same function object gets the wrapper. Modules come from sys.modules
because `tailcluster.hill` is the function re-exported by `__init__`,
not the module.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import tracemalloc
import types
from collections import defaultdict
from time import perf_counter

import numpy as np

LAYERS = (
    "simulate",
    "distributions",
    "order_stats",
    "cluster",
    "hill",
    "core",
    "ingest",
    "bench",
    "cli",
)

# the benchmark's own spans (one per op) belong to this pseudo-layer
OWN_LAYER = "benchmark"
OP_SPAN = f"{OWN_LAYER}.op"

_CLUSTER_ENTRIES = ("cluster.cluster_known_g", "cluster.cluster_unknown_g")


def _meter_quantile(c, args):
    c["quantile_calls"] += 1
    c["quantile_points"] += np.size(args[0])


def _meter_cdf(c, args):
    c["cdf_calls"] += 1
    c["cdf_points"] += np.size(args[0])


def _meter_self_scale(c, args):
    c["bytes_selected"] += args[0].values.nbytes


def _meter_pooled(c, args):
    scaled, active = args[0], args[1]
    c["bytes_selected"] += 8 * scaled.n * len(set(active))


def _meter_matrix(c, args):
    c["matrix_copies"] += 1
    c["bytes_copied"] += args[0].values.nbytes


def _meter_read(c, args):
    c["read_bytes"] += os.path.getsize(args[0])


def _meter_write(c, args):
    c["write_bytes"] += os.path.getsize(args[1])


_METERS = {
    "distributions.student_t_quantile": _meter_quantile,
    "distributions.student_t_cdf": _meter_cdf,
    "order_stats.self_scale": _meter_self_scale,
    "order_stats.pooled_upper_order_stat": _meter_pooled,
    "core.DataMatrix": _meter_matrix,
    "order_stats.ScaledMatrix": _meter_matrix,
    "ingest.read_data_csv": _meter_read,
    "ingest.read_price_csv": _meter_read,
    "ingest.write_data_csv": _meter_write,
}


def _layer_targets():
    """(span name, owner, attribute, original) for every traced callable."""
    targets = []
    for layer in LAYERS:
        mod = sys.modules[f"tailcluster.{layer}"]
        for attr in getattr(mod, "__all__", ("main",)):
            obj = getattr(mod, attr)
            if isinstance(obj, types.FunctionType) and obj.__module__ == mod.__name__:
                targets.append((f"{layer}.{attr}", mod, attr, obj))
            elif isinstance(obj, type) and "__post_init__" in vars(obj):
                targets.append((f"{layer}.{attr}", obj, "__post_init__", vars(obj)["__post_init__"]))
    return targets


class Tracer:
    """Records spans and counters while installed.

    Args:
        alloc_probe: also measure tracemalloc's peak over each outermost
            clustering call. It slows those calls, so it is used in a
            separate probe op whose spans are not reported as timings.
    """

    def __init__(self, alloc_probe: bool = False):
        self.spans: list = []
        self.stack: list[int] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.alloc_probe = alloc_probe
        self._patched: list = []

    # ---- recording -------------------------------------------------
    def open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, perf_counter(), None, self.stack[-1] if self.stack else -1])
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter()
        self.stack.pop()

    def _wrap(self, name, fn):
        meter = _METERS.get(name)
        probe = self.alloc_probe and name in _CLUSTER_ENTRIES
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            started = probe and not tracemalloc.is_tracing()
            if started:
                tracemalloc.start()
            idx = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
                if started:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                    c = tracer.counters
                    c["cluster_peak_alloc"] = max(c["cluster_peak_alloc"], peak)
            if meter is not None:
                meter(tracer.counters, args)
            return result

        return wrapper

    # ---- installation ----------------------------------------------
    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for name, owner, attr, original in _layer_targets():
            wrapper = self._wrap(name, original)
            if isinstance(owner, type):
                self._patched.append((owner, attr, original))
                setattr(owner, attr, wrapper)
            else:
                wrappers[id(original)] = (original, wrapper)
        package = [m for n, m in sorted(sys.modules.items())
                   if n == "tailcluster" or n.startswith("tailcluster.")]
        for mod in package:
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, hit[1])

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # ---- exchange with child processes ------------------------------
    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counters": dict(self.counters)}, fh)

    def adopt(self, path, parent: int) -> None:
        """Append a child process's spans under span `parent`."""
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        base = len(self.spans)
        for name, t0, t1, par in doc["spans"]:
            self.spans.append([name, t0, t1, parent if par < 0 else par + base])
        for key, value in doc["counters"].items():
            if key == "cluster_peak_alloc":
                self.counters[key] = max(self.counters[key], value)
            else:
                self.counters[key] += value


class SpanTable:
    """Self and inclusive times computed from a closed span list."""

    def __init__(self, spans):
        self.names = [s[0] for s in spans]
        self.parents = [s[3] for s in spans]
        self.durations = [s[2] - s[1] for s in spans]
        child = [0.0] * len(spans)
        for i, par in enumerate(self.parents):
            if par >= 0:
                child[par] += self.durations[i]
        self.self_times = [d - c for d, c in zip(self.durations, child)]

    def layer_self(self) -> dict[str, float]:
        out = {layer: 0.0 for layer in (*LAYERS, OWN_LAYER)}
        for name, t in zip(self.names, self.self_times):
            out[name.split(".", 1)[0]] += t
        return out

    def outer_time(self, names) -> float:
        """Summed duration of spans in `names` with no ancestor in `names`."""
        names = set(names)
        total = 0.0
        for i, name in enumerate(self.names):
            if name not in names:
                continue
            par = self.parents[i]
            while par >= 0 and self.names[par] not in names:
                par = self.parents[par]
            if par < 0:
                total += self.durations[i]
        return total

    def count(self, name, parent_layer=None) -> int:
        n = 0
        for i, nm in enumerate(self.names):
            if nm != name:
                continue
            par = self.parents[i]
            if parent_layer is None or (par >= 0 and self.names[par].split(".", 1)[0] == parent_layer):
                n += 1
        return n
