"""Shared domain types, default parameter formulas, and evaluation metrics.

This module defines the value types the rest of the library operates on
(data matrices, ordered tail partitions, clustering parameters, simulation
ground truth) plus the small pure functions that do not belong to any one
algorithm: the dimension-driven parameter defaults, the order-aware
clustering accuracy, and the per-column mean squared error.

All types are immutable after construction and validate their invariants
eagerly, so downstream code can assume well-formed inputs.

Column indices are 1-based everywhere in this module and in every
serialized artifact; that convention matches how partitions and labels are
reported to users.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import reprlib
import types
import typing
from dataclasses import dataclass

import numpy as np

__all__ = [
    "TailClusterError",
    "ParseError",
    "ValidationError",
    "DimensionMismatchError",
    "DataMatrix",
    "TailPartition",
    "ClusterParams",
    "GroundTruth",
    "default_params",
    "resolve_params",
    "accuracy",
    "mse",
    "truth_from_design",
    "SCHEMA_VERSION",
    "from_jsonable",
]

SCHEMA_VERSION = 1  # of every JSON document the package writes


class TailClusterError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(TailClusterError, ValueError):
    """An input file or document could not be read; the message carries
    the location (row/column or field path) when one is known."""


class ValidationError(TailClusterError, ValueError):
    """An input violates a documented precondition or type invariant."""


class DimensionMismatchError(ValidationError):
    """Two inputs that must describe the same number of columns do not."""


def _as_matrix(values) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 2:
        raise ValidationError(f"expected a 2-D array, got ndim={arr.ndim}")
    return arr


@dataclass(frozen=True)
class DataMatrix:
    """An n x p observation matrix: rows are i.i.d. samples, columns are variables.

    Attributes:
        values: read-only float array of shape (n, p); every entry finite.
        column_labels: optional tuple of p distinct names for the columns.
    """

    values: np.ndarray
    column_labels: tuple[str, ...] | None = None

    def __post_init__(self):
        arr = _as_matrix(self.values)
        n, p = arr.shape
        if n < 2 or p < 1:
            raise ValidationError(f"need n >= 2 rows and p >= 1 columns, got shape {arr.shape}")
        if self.column_labels is not None:
            labels = tuple(str(s) for s in self.column_labels)
            if len(labels) != p:
                raise DimensionMismatchError(
                    f"{len(labels)} column labels for {p} columns"
                )
            if len(set(labels)) != p:
                raise ValidationError("column labels must be distinct")
            object.__setattr__(self, "column_labels", labels)
        if not np.all(np.isfinite(arr)):
            i, j = np.argwhere(~np.isfinite(arr))[0]
            raise ValidationError(
                f"data matrix entry at row {i + 1}, column {self.label_of(j + 1)!r} "
                f"is {float(arr[i, j])!r}; entries must be finite"
            )
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def p(self) -> int:
        return self.values.shape[1]

    def column(self, j: int) -> np.ndarray:
        """Return column j (1-based) as a read-only vector."""
        if not 1 <= j <= self.p:
            raise ValidationError(f"column index {j} outside 1..{self.p}")
        return self.values[:, j - 1]

    def label_of(self, j: int) -> str:
        if self.column_labels is not None:
            return self.column_labels[j - 1]
        return f"V{j}"


@dataclass(frozen=True)
class TailPartition:
    """An ordered partition of the column indices {1..p} into disjoint groups.

    Group order is meaningful: group 1 was extracted first and holds the
    heaviest tails, the last group the lightest. Within a group, indices
    are stored sorted ascending.
    """

    groups: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        norm = []
        seen: set[int] = set()
        for g in self.groups:
            members = tuple(sorted(int(j) for j in g))
            if not members:
                raise ValidationError("partition groups must be non-empty")
            if seen.intersection(members):
                raise ValidationError("partition groups must be disjoint")
            seen.update(members)
            norm.append(members)
        if not norm:
            raise ValidationError("partition must contain at least one group")
        p = len(seen)
        if seen != set(range(1, p + 1)):
            raise ValidationError(
                "partition groups must cover exactly the indices 1..p "
                f"(got {sorted(seen)})"
            )
        object.__setattr__(self, "groups", tuple(norm))

    @property
    def p(self) -> int:
        return sum(len(g) for g in self.groups)

    @property
    def num_groups(self) -> int:
        return len(self.groups)

    def labels(self) -> np.ndarray:
        """Return the length-p vector of 1-based group labels per column."""
        out = np.empty(self.p, dtype=int)
        for pos, members in enumerate(self.groups, start=1):
            for j in members:
                out[j - 1] = pos
        return out


@dataclass(frozen=True)
class ClusterParams:
    """Tuning parameters of the threshold clustering procedure.

    Attributes:
        k: size of the pooled-quantile intermediate sequence.
        k_star: rank used for per-column self-scaling; must exceed k.
        beta: per-column quantile fraction in (0, 1); floor(beta * k) >= 1.
        known_g: number of groups when known in advance, else None.
    """

    k: int
    k_star: int
    beta: float
    known_g: int | None = None

    def __post_init__(self):
        if self.k < 1:
            raise ValidationError(f"k must be a positive integer, got {self.k}")
        if not self.k < self.k_star:
            raise ValidationError(f"need k < k_star, got k={self.k}, k_star={self.k_star}")
        if not 0.0 < self.beta < 1.0:
            raise ValidationError(f"beta must lie in (0, 1), got {self.beta}")
        if math.floor(self.beta * self.k) < 1:
            raise ValidationError(
                f"floor(beta * k) must be >= 1, got beta={self.beta}, k={self.k}"
            )
        if self.known_g is not None and self.known_g < 1:
            raise ValidationError(f"known_g must be >= 1, got {self.known_g}")

    def validate_for(self, n: int, p: int) -> None:
        """Check the data-dependent constraints against an n x p matrix."""
        if not self.k_star <= n - 1:
            raise ValidationError(
                f"k_star={self.k_star} must be <= n - 1 = {n - 1}"
            )
        if self.known_g is not None and self.known_g > p:
            raise ValidationError(f"known_g={self.known_g} exceeds p={p}")

    def with_known_g(self, g: int | None) -> "ClusterParams":
        return ClusterParams(self.k, self.k_star, self.beta, g)


@dataclass(frozen=True)
class GroundTruth:
    """True group labels and group tail indices for a simulated design.

    Attributes:
        group_of: length-p integer array; entry j-1 is the 1-based group
            label of column j.
        gammas: strictly decreasing positive tail index per group.
    """

    group_of: np.ndarray
    gammas: np.ndarray

    def __post_init__(self):
        labels = np.asarray(self.group_of, dtype=int)
        gammas = np.asarray(self.gammas, dtype=float)
        if labels.ndim != 1 or gammas.ndim != 1:
            raise ValidationError("group_of and gammas must be 1-D")
        g = gammas.size
        if g < 1 or np.any(gammas <= 0):
            raise ValidationError("gammas must be non-empty and strictly positive")
        if np.any(np.diff(gammas) >= 0):
            raise ValidationError("gammas must be strictly decreasing")
        present = set(labels.tolist())
        if present != set(range(1, g + 1)):
            raise ValidationError(
                f"labels must use every group in 1..{g}, got {sorted(present)}"
            )
        labels.setflags(write=False)
        gammas.setflags(write=False)
        object.__setattr__(self, "group_of", labels)
        object.__setattr__(self, "gammas", gammas)

    @property
    def p(self) -> int:
        return self.group_of.size

    @property
    def g(self) -> int:
        return self.gammas.size

    def column_gammas(self) -> np.ndarray:
        """Per-column true tail index (gamma of the column's group)."""
        return self.gammas[self.group_of - 1]


def default_params(p: int, n0: int) -> ClusterParams:
    """Dimension-driven default tuning parameters.

    Uses natural logarithms:

        k      = floor(3 * ln(p)^1.05), at least 1
        k_star = floor(n0 ** 0.98)
        beta   = min(2 * (k / k_star) * p + 0.5, 0.9)

    where ``n0`` is the effective sample size for scaling (the full n for
    all-positive data, otherwise the minimum per-column count of positive
    observations).

    Args:
        p: number of columns, >= 2.
        n0: effective positive-sample size, >= 4.

    Returns:
        A validated ClusterParams with known_g unset.

    Raises:
        ValidationError: when the computed values violate the parameter
            invariants (the offending constraint is named in the message).
    """
    return resolve_params(p, n0)[0]


def resolve_params(
    p: int,
    n0: int,
    k: int | None = None,
    k_star: int | None = None,
    beta: float | None = None,
) -> tuple[ClusterParams, tuple[str, ...]]:
    """Fill the unset tuning parameters from the default formulas.

    Explicit values win; a missing k or k_star comes from the formulas
    of default_params, and a missing beta is computed from the effective
    k and k_star so overrides stay mutually consistent.

    Returns:
        (params, defaults_used) where defaults_used names the fields
        that were filled by formula.

    Raises:
        ValidationError: as default_params, or for invalid overrides.
    """
    filled = []
    if k is None or k_star is None:
        if p < 2:
            raise ValidationError(f"p must be >= 2, got {p}")
        if n0 < 4:
            raise ValidationError(f"n0 must be >= 4, got {n0}")
    if k is None:
        k = max(1, math.floor(3.0 * math.log(p) ** 1.05))
        filled.append("k")
    if k_star is None:
        k_star = math.floor(n0**0.98)
        filled.append("k_star")
    if beta is None:
        beta = min(2.0 * (int(k) / int(k_star)) * p + 0.5, 0.9)
        filled.append("beta")
    return ClusterParams(k=int(k), k_star=int(k_star), beta=float(beta)), tuple(filled)


def accuracy(truth: GroundTruth, estimate: TailPartition) -> float:
    """Fraction of columns whose estimated group label matches the truth.

    The estimated label of column j is the 1-based position of the group
    of ``estimate`` containing j. Labels are compared positionally; no
    permutation matching is applied, because group order (heaviest tail
    first) is part of what both clustering procedures estimate.
    """
    if estimate.p != truth.p:
        raise DimensionMismatchError(
            f"partition covers p={estimate.p} columns, truth has p={truth.p}"
        )
    return float(np.mean(estimate.labels() == truth.group_of))


def mse(truth_gammas: np.ndarray, estimated_gammas: np.ndarray) -> float:
    """Mean squared deviation between two per-column gamma vectors."""
    a = np.asarray(truth_gammas, dtype=float)
    b = np.asarray(estimated_gammas, dtype=float)
    if a.shape != b.shape or a.ndim != 1:
        raise DimensionMismatchError(
            f"gamma vectors must be 1-D with equal length, got {a.shape} and {b.shape}"
        )
    return float(np.mean((a - b) ** 2))


def truth_from_design(g: int, q: int, delta: float) -> GroundTruth:
    """Ground truth of the block simulation design.

    p = g * q columns; column j belongs to group ceil(j / q); group ell
    has tail index (1 - delta) ** (ell - 1), so consecutive groups are
    separated by the relative gap delta.
    """
    if g < 1 or q < 1:
        raise ValidationError(f"g and q must be positive, got g={g}, q={q}")
    if not 0.0 < delta < 1.0:
        raise ValidationError(f"delta must lie in (0, 1), got {delta}")
    labels = np.repeat(np.arange(1, g + 1), q)
    gammas = (1.0 - delta) ** np.arange(g)
    return GroundTruth(group_of=labels, gammas=gammas)


# resolving string annotations dominates decoding time, so do it once per class
_field_types = functools.cache(typing.get_type_hints)


def _decode(tp, raw, where: str):
    if dataclasses.is_dataclass(tp):
        return from_jsonable(tp, raw, where)
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin in (typing.Union, types.UnionType):
        if raw is None and type(None) in args:
            return None
        (tp,) = [a for a in args if a is not type(None)]
        return _decode(tp, raw, where)
    if origin is tuple:
        if not isinstance(raw, list):
            raise ParseError(f"{where}: expected a list, got {reprlib.repr(raw)}")
        if args[-1] is Ellipsis:
            args = (args[0],) * len(raw)
        elif len(raw) != len(args):
            raise ParseError(f"{where}: expected a list of {len(args)}, got {reprlib.repr(raw)}")
        return tuple(v if type(v) is a else _decode(a, v, f"{where}[{i}]")
                     for i, (a, v) in enumerate(zip(args, raw)))
    if isinstance(raw, tp) and isinstance(raw, bool) == (tp is bool):
        return raw
    if tp is float and type(raw) is int:
        try:
            return float(raw)
        except OverflowError:
            raise ParseError(f"{where}: {reprlib.repr(raw)} is out of float range") from None
    raise ParseError(f"{where}: expected {tp.__name__}, got {reprlib.repr(raw)}")


def from_jsonable(cls, raw, where: str):
    """Build dataclass cls from a parsed JSON object, field by field.

    JSON lists become tuples, nested objects nested dataclasses, ints
    fill float fields and null fills `X | None` fields. Value checks are
    left to cls.__post_init__.

    Raises:
        ParseError: raw is not an object, or a field is unknown, missing
            or of the wrong type; the message names the path from where.
    """
    if not isinstance(raw, dict):
        raise ParseError(f"{where}: expected an object, got {reprlib.repr(raw)}")
    fields = {f.name: f for f in dataclasses.fields(cls)}
    unknown = sorted(set(raw) - set(fields))
    if unknown:
        raise ParseError(f"{where}: unknown fields {unknown}")
    hints = _field_types(cls)
    kwargs = {}
    for name, f in fields.items():
        if name in raw:
            kwargs[name] = _decode(hints[name], raw[name], f"{where}.{name}")
        elif f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING:
            raise ParseError(f"{where}.{name}: missing required field")
    return cls(**kwargs)
