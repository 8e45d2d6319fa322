"""Iterative tail clustering by pooled quantile thresholds.

One peeling loop repeatedly removes the heaviest-tailed group of
columns: scale each column by its own upper order statistic, pool the
scaled values of the still-active columns, compute a pooled threshold,
and keep the columns whose high quantile clears it, until no columns
remain. The matrix memoises that trace; a known-g result is read off
it: the first g - 1 extracted groups, then the rest as group g.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass
from types import MappingProxyType

from .core import ClusterParams, DataMatrix, TailClusterError, TailPartition, ValidationError
from .order_stats import self_scale

__all__ = [
    "ActiveSetExhausted",
    "TraceStep",
    "IterationTrace",
    "cluster_known_g",
    "cluster_unknown_g",
]


class ActiveSetExhausted(TailClusterError, RuntimeError):
    """No columns remain but more groups were requested.

    Attributes:
        iteration: 1-based index of the group that could not be formed.
    """

    def __init__(self, iteration: int):
        self.iteration = int(iteration)
        super().__init__(
            f"active set exhausted before group {self.iteration} could be "
            "formed; the requested group count exceeds the number of "
            "extractable groups"
        )


@dataclass(frozen=True)
class TraceStep:
    """One extraction iteration: who was active, the cutoff, who left."""

    active: tuple[int, ...]
    threshold: float
    column_stats: Mapping[int, float]  # read-only: the trace is shared through the memo
    extracted: tuple[int, ...]


@dataclass(frozen=True)
class IterationTrace:
    """Extraction history of one clustering run."""

    steps: tuple[TraceStep, ...]

    def __len__(self) -> int:
        return len(self.steps)


def _run(data: DataMatrix, params: ClusterParams) -> IterationTrace:
    params.validate_for(data.n, data.p)
    return data._memoised(("trace", params.k, params.k_star, params.beta), lambda: _peel(data, params))


def _peel(data: DataMatrix, params: ClusterParams) -> IterationTrace:
    scaled = self_scale(data, params.k_star)
    # each column's (floor(beta*k)+1)-th largest scaled value
    stat_row = scaled[math.floor(params.beta * params.k)]
    active = list(range(1, data.p + 1))
    steps: list[TraceStep] = []
    while active:
        # The cutoff u is the (k*|active|)-th largest pooled scaled value
        # of the active columns. A value below row k*|active| of its own
        # column has that many values above it already, so the top rows
        # hold the cutoff. The fancy index makes the pool's one copy, and
        # ravel(order="K") views it in its column-major order.
        rank = params.k * len(active)
        pool = scaled[: min(data.n, rank), [j - 1 for j in active]].ravel(order="K")
        pool.partition(pool.size - rank)
        u = float(pool[pool.size - rank])
        del pool  # free this step's copy before the next step builds its own
        stats = MappingProxyType({j: float(stat_row[j - 1]) for j in active})
        # >= keeps ties: a column exactly at the cutoff joins the heavier
        # group. For beta < 1 the group is never empty: some column owns
        # at least k of the top k*|active| pooled values, and its
        # statistic sits at rank floor(beta*k)+1 <= k from the top.
        group = tuple(j for j in active if stats[j] >= u)
        steps.append(
            TraceStep(active=tuple(active), threshold=u, column_stats=stats, extracted=group)
        )
        active = [j for j in active if stats[j] < u]
    return IterationTrace(steps=tuple(steps))


def cluster_known_g(data: DataMatrix, params: ClusterParams) -> tuple[TailPartition, IterationTrace]:
    """Cluster into a caller-specified number of groups.

    Reads the result off the memoised peel that cluster_unknown_g also
    returns: its first known_g - 1 steps (read-only and shared) and
    their groups, then all remaining columns as the final group.

    Raises:
        ActiveSetExhausted: a peeling step consumed all columns before
            known_g groups were formed (only possible when known_g
            exceeds the number of extractable groups).
    """
    if params.known_g is None:
        raise ValidationError("params.known_g must be set for cluster_known_g")
    trace, g = _run(data, params), params.known_g
    if len(trace) < g:
        raise ActiveSetExhausted(len(trace) + 1)
    steps = trace.steps[: g - 1]
    groups = [step.extracted for step in steps] + [trace.steps[g - 1].active]
    return TailPartition(groups=tuple(groups)), IterationTrace(steps=steps)


def cluster_unknown_g(data: DataMatrix, params: ClusterParams) -> tuple[TailPartition, IterationTrace]:
    """Cluster with the number of groups discovered by the data.

    Peels groups until no columns remain. Termination within p
    iterations is guaranteed because each extracted group is non-empty.
    The trace is the matrix's memoised one, read-only and shared with later calls.
    """
    if params.known_g is not None:
        raise ValidationError("params.known_g must be unset for cluster_unknown_g")
    trace = _run(data, params)
    return TailPartition(groups=tuple(step.extracted for step in trace.steps)), trace
