"""Order-statistic selection and the self-scaling transform.

Indexing convention used throughout: the "m-th value from the top"
counts 1-based from the maximum, and the subscript form used by the
clustering algorithms maps as X_{n-m:n} = the (m+1)-th largest. Ties
are kept as duplicate values; no jittering.

A scaled dataset has one representation: the n x p array returned by
self_scale, each column sorted descending and divided by its own
(k_star+1)-th largest value. Like DataMatrix.values it is column-major,
so each column is contiguous. Row m of it is the (m+1)-th largest scaled
value of every column, so every statistic the clustering reads (the
pooled cutoff and each column's high quantile) is a row lookup or a
selection over its top rows.
"""

from __future__ import annotations

import numpy as np

from .core import DataMatrix, ValidationError

__all__ = [
    "NonpositiveThreshold",
    "self_scale",
]


class NonpositiveThreshold(ValidationError):
    """A scaling denominator was not strictly positive.

    Attributes:
        column: label of the offending column.
    """

    def __init__(self, column: str, value: float):
        self.column = column
        self.value = float(value)
        super().__init__(
            f"scaling denominator for column {self.column} is {self.value!r}; "
            "it must be strictly positive (choose a smaller k_star or drop "
            "the column)"
        )


def self_scale(data: DataMatrix, k_star: int) -> np.ndarray:
    """Sort every column descending and divide it by its own row k_star.

    Row m of the result is the (m+1)-th largest scaled value of every
    column, and row k_star is all ones. Dividing by a positive number
    keeps the order, so the result equals sorting data / denominators
    element for element. This makes tails comparable across columns
    whatever their units: multiplying a source column by any power of
    two leaves its scaled column bit-for-bit unchanged.

    Args:
        data: the source matrix.
        k_star: scaling threshold rank, 1 <= k_star <= n-1; every
            column's (k_star+1)-th largest value must be positive.

    Returns:
        An n x p float array, each column sorted descending and scaled.

    Raises:
        NonpositiveThreshold: some column's denominator is <= 0; the
            error names the first offending column.
    """
    n = data.n
    if not 1 <= k_star <= n - 1:
        raise ValidationError(f"k_star={k_star} out of range [1, {n - 1}]")
    scaled = np.sort(data.values, axis=0)[::-1]
    denoms = scaled[k_star].copy()
    bad = denoms <= 0.0
    if np.any(bad):
        j = int(np.argmax(bad))
        raise NonpositiveThreshold(data.label_of(j + 1), denoms[j])
    scaled /= denoms
    return scaled
