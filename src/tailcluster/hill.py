"""Hill estimation, the tail k-means baseline, and group-level aggregation.

Hill is one array API: `hill_gammas` gives the estimates, `hill_bands` their bands.

The baseline clusters per-column Hill estimates with an exact 1-D
k-means (dynamic programming over the sorted values, which is globally
optimal because optimal 1-D clusters are contiguous) instead of Lloyd's
heuristic. That removes seed sensitivity from the baseline and can only
make it look better in comparisons against the threshold method. The
DP runs in O(g*p^2) vectorised time and O(p*block) memory.
"""

from __future__ import annotations

import math
from statistics import NormalDist

import numpy as np

from .core import DataMatrix, DimensionMismatchError, TailPartition, ValidationError

_BLOCK = 64  # right ends per DP cost block: temporaries are O(p * _BLOCK), not p x p

__all__ = [
    "NonpositiveOrderStat",
    "hill_gammas",
    "hill_bands",
    "group_means",
    "kmeans_1d_exact",
    "tail_kmeans",
    "estimate_group_indices",
]


class NonpositiveOrderStat(ValidationError):
    """A log-based estimator met a nonpositive upper order statistic."""

    def __init__(self, value: float, column=None):
        self.value = float(value)
        self.column = column
        where = f" in column {column}" if column is not None else ""
        super().__init__(
            f"order statistic {self.value!r}{where} is not strictly positive; "
            "the Hill estimator needs positive top-(k+1) values"
        )


def _gamma(arr: np.ndarray, k: int, column=None) -> float:
    """The Hill kernel on a 1-d float vector whose k is already checked."""
    n = arr.size
    part = np.partition(arr, n - 1 - k)
    base = part[n - 1 - k]
    if base <= 0.0:
        raise NonpositiveOrderStat(base, column)
    top = part[n - k:]
    gamma = float(np.mean(np.log(top)) - math.log(base))
    # equal floats subtract to +0.0: this clamps only tiny negative rounding noise
    return max(gamma, 0.0)


def kmeans_1d_exact(values, g: int) -> list[tuple[int, ...]]:
    """Globally optimal 1-D k-means by dynamic programming.

    Optimal 1-D clusters are contiguous in sorted order, so a DP over
    split points minimizes the within-cluster sum of squares exactly and
    deterministically. Each layer is one numpy operation per block of
    _BLOCK right ends: O(g*p^2) time, O(p*_BLOCK) memory, and ties go to
    the first (lowest) split point. Output groups hold 1-based indices
    into the input vector and are ordered by descending sum of values.

    Args:
        values: 1-d vector of p finite reals.
        g: number of groups, 1 <= g <= p.
    """
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise ValidationError("values must be a non-empty 1-d vector")
    bad = np.flatnonzero(~np.isfinite(arr))
    if bad.size:
        raise ValidationError(f"value {bad[0] + 1} is {float(arr[bad[0]])}; values must be finite")
    p = arr.size
    if not 1 <= g <= p:
        raise ValidationError(f"g={g} out of range [1, {p}]")
    order = np.argsort(arr, kind="stable")
    sv = arr[order]
    s = np.concatenate(([0.0], np.cumsum(sv)))
    ss = np.concatenate(([0.0], np.cumsum(sv * sv)))
    # best[m, j]: least cost of sv[0..j] in m clusters, the last from split[m, j]
    best = np.full((g + 1, p), np.inf)
    split = np.zeros((g + 1, p), dtype=np.intp)
    for lo in range(0, p, _BLOCK):
        hi = min(lo + _BLOCK, p)
        i, j = np.arange(hi)[:, None], np.arange(lo, hi)
        # cost[i, j - lo]: within-cluster sum of squares of sv[i..j]
        total = s[j + 1] - s[i]
        cost = (ss[j + 1] - ss[i]) - total * total / np.maximum(j - i + 1, 1)
        cost[cost < 0.0] = 0.0
        # an overflowed (NaN) cost never wins, as under a strict-< scan
        cost[(i > j) | np.isnan(cost)] = np.inf
        best[1, lo:hi] = cost[0]
        for m in range(2, min(g, hi) + 1):
            cand = best[m - 1, m - 2 : hi - 1, None] + cost[m - 1 :]
            best[m, lo:hi] = cand.min(axis=0)
            # argmin returns the first minimum: the lowest split point wins
            split[m, lo:hi] = np.argmin(cand, axis=0) + (m - 1)
    # backtrack into contiguous blocks of sorted positions
    blocks: list[range] = []
    j = p - 1
    for m in range(g, 0, -1):
        i = split[m][j] if m > 1 else 0
        blocks.append(range(i, j + 1))
        j = i - 1
    blocks.reverse()
    groups = [tuple(sorted(int(order[t]) + 1 for t in blk)) for blk in blocks]
    sums = [float(sv[list(blk)].sum()) for blk in blocks]
    # heaviest-sum group first; blocks listed high-value-first on ties
    ranked = sorted(range(len(blocks)), key=lambda b: (-sums[b], -b))
    return [groups[b] for b in ranked]


def hill_gammas(data: DataMatrix, k: int) -> np.ndarray:
    """Hill estimates of every column from its top k+1 order statistics.

    gamma_hat = (1/k) * sum_{i=0}^{k-1} [log X_{(i+1)-th largest}
    - log X_{(k+1)-th largest}], clipped below at 0, for 1 <= k <= n-1.
    The vector is read-only and shared by later calls on the same matrix.

    Raises:
        NonpositiveOrderStat: some column's (k+1)-th largest value is
            <= 0; the error names the first such column by label.
    """
    if isinstance(k, (bool, float, np.floating)):
        raise ValidationError(f"k must be an integer, got {k!r}")
    if not 1 <= k <= data.n - 1:
        raise ValidationError(f"k={k} out of range [1, {data.n - 1}]")
    gammas = data._memoised(("hill", k), lambda: np.array(
        [_gamma(data.values[:, j], k, data.label_of(j + 1)) for j in range(data.p)]))
    gammas.setflags(write=False)  # shared by later calls on the same matrix
    return gammas


def hill_bands(gammas: np.ndarray, k: int, level: float) -> tuple[np.ndarray, np.ndarray]:
    """Asymptotic-normal confidence bands (low, high) of the Hill estimates at k.

    Each band is gamma_hat * (1 +- z_{(1+level)/2} / sqrt(k)), clipped
    below at +0.0; it uses the standard asymptotic variance gamma^2 / k.
    """
    if not 0.0 < level < 1.0:
        raise ValidationError(f"level must lie in (0, 1), got {level}")
    if k < 1:
        raise ValidationError(f"k must be >= 1, got {k}")
    z = NormalDist().inv_cdf(0.5 * (1.0 + level))
    half = z / math.sqrt(k)
    low = gammas * (1.0 - half)
    # a zero estimate times a negative factor is -0.0; where() yields +0.0
    return np.where(low > 0.0, low, 0.0), gammas * (1.0 + half)


def group_means(gammas: np.ndarray, partition: TailPartition) -> tuple[np.ndarray, np.ndarray]:
    """Average per-column estimates within groups and broadcast back to columns.

    Returns:
        (group_gammas, per_column_gammas): group_gammas[l] is the simple
        average of the member columns' estimates; every column of group
        l receives that average in per_column_gammas.

    Raises:
        DimensionMismatchError: partition.p differs from gammas.size.
    """
    if partition.p != gammas.size:
        raise DimensionMismatchError(f"partition covers p={partition.p} columns, gammas has p={gammas.size}")
    group_gammas = np.empty(len(partition.groups))
    per_column = np.empty(gammas.size)
    for gi, grp in enumerate(partition.groups):
        cols = [j - 1 for j in grp]
        group_gammas[gi] = gammas[cols].mean()
        per_column[cols] = group_gammas[gi]
    return group_gammas, per_column


def tail_kmeans(data: DataMatrix, g: int, k: int) -> TailPartition:
    """Baseline clustering: per-column Hill estimates + exact 1-D k-means.

    Groups are ordered by descending sum of member estimates, so group 1
    is the heaviest-tailed cluster.
    """
    return TailPartition(groups=tuple(kmeans_1d_exact(hill_gammas(data, k), g)))


def estimate_group_indices(
    data: DataMatrix, partition: TailPartition, k_hill: int
) -> tuple[np.ndarray, np.ndarray]:
    """group_means of the data's Hill pass at k_hill."""
    return group_means(hill_gammas(data, k_hill), partition)
