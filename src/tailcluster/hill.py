"""Hill estimation, the tail k-means baseline, and group-level aggregation.

The baseline clusters per-column Hill estimates with an exact 1-D
k-means (dynamic programming over the sorted values, which is globally
optimal because optimal 1-D clusters are contiguous) instead of Lloyd's
heuristic. That removes seed sensitivity from the baseline and can only
make it look better in comparisons against the threshold method.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from statistics import NormalDist

import numpy as np

from .core import DataMatrix, TailPartition, ValidationError

__all__ = [
    "NonpositiveOrderStat",
    "HillEstimate",
    "hill",
    "hill_ci",
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


@dataclass(frozen=True)
class HillEstimate:
    """A tail-index estimate with an optional confidence band."""

    gamma_hat: float
    k_used: int
    ci_low: float | None = None
    ci_high: float | None = None
    ci_method: str | None = None

    def __post_init__(self):
        if self.gamma_hat < 0.0 or not math.isfinite(self.gamma_hat):
            raise ValidationError(f"gamma_hat must be finite and >= 0, got {self.gamma_hat}")
        if self.k_used < 1:
            raise ValidationError(f"k_used must be >= 1, got {self.k_used}")
        band = (self.ci_low, self.ci_high)
        if (band[0] is None) != (band[1] is None):
            raise ValidationError("ci_low and ci_high must be set together")
        if band[0] is not None and not band[0] <= self.gamma_hat <= band[1]:
            raise ValidationError(
                f"confidence band [{band[0]}, {band[1]}] must bracket {self.gamma_hat}"
            )


def hill(column, k: int) -> HillEstimate:
    """Hill estimator from the top k+1 order statistics of a vector.

    gamma_hat = (1/k) * sum_{i=0}^{k-1} [log X_{(i+1)-th largest}
    - log X_{(k+1)-th largest}].

    Args:
        column: 1-d vector, length n >= 2.
        k: number of top log-ratios averaged, 1 <= k <= n-1; all of the
            top k+1 values must be strictly positive.

    Raises:
        NonpositiveOrderStat: the (k+1)-th largest value is <= 0.
    """
    arr = np.asarray(column, dtype=float)
    if arr.ndim != 1 or arr.size < 2:
        raise ValidationError("column must be a 1-d vector of length >= 2")
    n = arr.size
    if not 1 <= k <= n - 1:
        raise ValidationError(f"k={k} out of range [1, {n - 1}]")
    part = np.partition(arr, n - 1 - k)
    base = part[n - 1 - k]
    if base <= 0.0:
        raise NonpositiveOrderStat(base)
    top = part[n - k:]
    gamma = float(np.mean(np.log(top)) - math.log(base))
    # exact-tie columns can produce -0.0 or tiny negative rounding noise
    return HillEstimate(gamma_hat=max(gamma, 0.0), k_used=k)


def hill_ci(estimate: HillEstimate, level: float) -> HillEstimate:
    """Attach an asymptotic-normal confidence band to a Hill estimate.

    The band is gamma_hat * (1 +- z_{(1+level)/2} / sqrt(k)), clipped
    below at 0; it uses the standard asymptotic variance gamma^2 / k.
    The construction is recorded in the ci_method field.
    """
    if not 0.0 < level < 1.0:
        raise ValidationError(f"level must lie in (0, 1), got {level}")
    z = NormalDist().inv_cdf(0.5 * (1.0 + level))
    half = z / math.sqrt(estimate.k_used)
    lo = max(estimate.gamma_hat * (1.0 - half), 0.0)
    hi = estimate.gamma_hat * (1.0 + half)
    return replace(estimate, ci_low=lo, ci_high=hi, ci_method="asymptotic_normal")


def _prefix_cost_tables(sorted_vals: np.ndarray):
    s = np.concatenate(([0.0], np.cumsum(sorted_vals)))
    ss = np.concatenate(([0.0], np.cumsum(sorted_vals * sorted_vals)))

    def cost(i: int, j: int) -> float:
        # within-cluster sum of squares of sorted_vals[i..j] inclusive
        m = j - i + 1
        total = s[j + 1] - s[i]
        return max((ss[j + 1] - ss[i]) - total * total / m, 0.0)

    return cost


def kmeans_1d_exact(values, g: int) -> list[tuple[int, ...]]:
    """Globally optimal 1-D k-means by dynamic programming.

    Optimal 1-D clusters are contiguous in sorted order, so a DP over
    split points minimizes the within-cluster sum of squares exactly and
    deterministically. Output groups hold 1-based indices into the input
    vector and are ordered by descending sum of their values.

    Args:
        values: 1-d vector of p reals.
        g: number of groups, 1 <= g <= p.
    """
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise ValidationError("values must be a non-empty 1-d vector")
    p = arr.size
    if not 1 <= g <= p:
        raise ValidationError(f"g={g} out of range [1, {p}]")
    order = np.argsort(arr, kind="stable")
    sv = arr[order]
    cost = _prefix_cost_tables(sv)
    # best[m][j]: minimal cost of splitting sv[0..j] into m clusters
    best = [[0.0] * p for _ in range(g + 1)]
    split = [[0] * p for _ in range(g + 1)]
    for j in range(p):
        best[1][j] = cost(0, j)
    for m in range(2, g + 1):
        for j in range(m - 1, p):
            bval, barg = math.inf, m - 1
            for i in range(m - 1, j + 1):
                c = best[m - 1][i - 1] + cost(i, j)
                if c < bval:
                    bval, barg = c, i
            best[m][j] = bval
            split[m][j] = barg
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


def _hill_gammas(data: DataMatrix, k: int) -> np.ndarray:
    """`hill(column, k).gamma_hat` of every column: the one per-column Hill pass."""
    out = np.empty(data.p)
    for j in range(1, data.p + 1):
        try:
            out[j - 1] = hill(data.column(j), k).gamma_hat
        except NonpositiveOrderStat as exc:
            raise NonpositiveOrderStat(exc.value, column=data.label_of(j)) from None
    return out


def _group_means(gammas: np.ndarray, partition: TailPartition) -> tuple[np.ndarray, np.ndarray]:
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
    return TailPartition(groups=tuple(kmeans_1d_exact(_hill_gammas(data, k), g)))


def estimate_group_indices(
    data: DataMatrix, partition: TailPartition, k_hill: int
) -> tuple[np.ndarray, np.ndarray]:
    """Average Hill estimates within groups and broadcast back to columns.

    Returns:
        (group_gammas, per_column_gammas): group_gammas[l] is the simple
        average of the member columns' Hill estimates; every column of
        group l receives that average in per_column_gammas.
    """
    if partition.p != data.p:
        raise ValidationError(
            f"partition covers {partition.p} columns but data has {data.p}"
        )
    return _group_means(_hill_gammas(data, k_hill), partition)
