"""Iterative tail clustering by pooled quantile thresholds.

Both procedures repeatedly peel off the currently heaviest-tailed group
of columns: scale each column by its own upper order statistic, pool the
scaled values of the still-active columns, compute a pooled threshold,
and keep the columns whose high quantile clears it. With the number of
groups known the loop runs a fixed count; otherwise it runs until no
columns remain, and the number of groups is emergent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
    column_stats: dict[int, float]
    extracted: tuple[int, ...]


@dataclass(frozen=True)
class IterationTrace:
    """Extraction history of one clustering run."""

    steps: tuple[TraceStep, ...]

    def __post_init__(self):
        seen: set[int] = set()
        prev = None
        for step in self.steps:
            if seen.intersection(step.extracted):
                raise ValidationError("trace steps extract overlapping groups")
            seen.update(step.extracted)
            if prev is not None and not set(step.active) < set(prev.active):
                raise ValidationError("active sets must strictly decrease")
            prev = step

    def __len__(self) -> int:
        return len(self.steps)


def _run(
    data: DataMatrix, params: ClusterParams, stop_after: int | None
) -> tuple[TailPartition, IterationTrace]:
    params.validate_for(data.n, data.p)
    scaled = self_scale(data, params.k_star)
    # each column's (floor(beta*k)+1)-th largest scaled value
    stat_row = scaled[math.floor(params.beta * params.k)]
    active = list(range(1, data.p + 1))
    groups: list[tuple[int, ...]] = []
    steps: list[TraceStep] = []
    while active:
        if stop_after is not None and len(groups) == stop_after - 1:
            groups.append(tuple(active))
            break
        # The cutoff u is the (k*|active|)-th largest pooled scaled value
        # of the active columns. A value below row k*|active| of its own
        # column has that many values above it already, so the top rows
        # hold the cutoff.
        rank = params.k * len(active)
        pool = scaled[: min(data.n, rank), [j - 1 for j in active]].ravel()
        pool.partition(pool.size - rank)
        u = float(pool[pool.size - rank])
        stats = {j: float(stat_row[j - 1]) for j in active}
        # >= keeps ties: a column exactly at the cutoff joins the heavier
        # group. For beta < 1 the group is never empty: some column owns
        # at least k of the top k*|active| pooled values, and its
        # statistic sits at rank floor(beta*k)+1 <= k from the top.
        group = tuple(j for j in active if stats[j] >= u)
        steps.append(
            TraceStep(active=tuple(active), threshold=u, column_stats=stats, extracted=group)
        )
        groups.append(group)
        active = [j for j in active if stats[j] < u]
    if stop_after is not None and len(groups) < stop_after:
        raise ActiveSetExhausted(len(groups) + 1)
    return TailPartition(groups=tuple(groups)), IterationTrace(steps=tuple(steps))


def cluster_known_g(data: DataMatrix, params: ClusterParams) -> tuple[TailPartition, IterationTrace]:
    """Cluster into a caller-specified number of groups.

    Runs the peeling step known_g - 1 times and assigns all remaining
    columns to the final group. With known_g = 1 no threshold step runs
    and the single group holds every column.

    Raises:
        ActiveSetExhausted: a peeling step consumed all columns before
            known_g groups were formed (only possible when known_g
            exceeds the number of extractable groups).
    """
    if params.known_g is None:
        raise ValidationError("params.known_g must be set for cluster_known_g")
    return _run(data, params, stop_after=params.known_g)


def cluster_unknown_g(data: DataMatrix, params: ClusterParams) -> tuple[TailPartition, IterationTrace]:
    """Cluster with the number of groups discovered by the data.

    Peels groups until no columns remain. Termination within p
    iterations is guaranteed because each extracted group is non-empty.
    """
    if params.known_g is not None:
        raise ValidationError("params.known_g must be unset for cluster_unknown_g")
    return _run(data, params, stop_after=None)
