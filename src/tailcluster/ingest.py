"""CSV ingestion: price tables, loss returns, and plain data matrices.

Pinned CSV dialect for every reader and writer here: UTF-8, comma
separator, a header row, decimal points, no thousands separators.
Price tables put dates (ISO format, strictly increasing) in the first
column; missing prices are written as an empty field and recognized on
input as any of "", "NA", "NaN", "ND", "null" (case-insensitive).
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from datetime import date
from pathlib import Path

import numpy as np

from .core import DataMatrix, ParseError, ValidationError

__all__ = [
    "PriceTable",
    "returns",
    "read_data_csv",
    "write_data_csv",
    "read_price_csv",
    "read_text",
    "min_positive_count",
]

_MISSING_TOKENS = {"", "na", "nan", "nd", "null"}


@dataclass(frozen=True)
class PriceTable:
    """Dated price series with optional gaps.

    Attributes:
        dates: strictly increasing ISO date strings, at least 2.
        names: the p series names.
        prices: (len(dates), p) float array with NaN marking a missing
            observation; present prices may be any finite value (sign is
            checked where it matters, at return computation).
    """

    dates: tuple[str, ...]
    names: tuple[str, ...]
    prices: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.prices, dtype=float)
        if arr.ndim != 2 or arr.shape != (len(self.dates), len(self.names)):
            raise ValidationError(
                f"prices shape {arr.shape} does not match {len(self.dates)} dates "
                f"x {len(self.names)} series"
            )
        if len(self.dates) < 2:
            raise ValidationError("a price table needs at least 2 rows")
        if len(set(self.names)) != len(self.names):
            raise ValidationError("series names must be distinct")
        try:
            days = [date.fromisoformat(str(d)) for d in self.dates]
        except ValueError:
            raise ValidationError("dates must be ISO dates (YYYY-MM-DD)") from None
        for pos, (a, b) in enumerate(zip(days, days[1:]), start=2):
            if b <= a:
                raise ValidationError(
                    f"dates must be strictly increasing: date {pos} ({b}) "
                    f"does not follow date {pos - 1} ({a})"
                )
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "prices", arr)
        object.__setattr__(self, "dates", tuple(str(d) for d in self.dates))
        object.__setattr__(self, "names", tuple(str(s) for s in self.names))


def loss_return_values(prices: PriceTable) -> tuple[np.ndarray, tuple[str, ...]]:
    """Loss returns -log(P_t / P_{t-1}) over the complete rows.

    Rows with any missing price are removed first (listwise deletion),
    and differences are then taken between consecutive retained rows,
    including across a deleted gap.

    Returns:
        ((m-1) x p array, series names) where m is the number of
        complete rows; m >= 2 is required.

    Raises:
        ValidationError: a retained price is not strictly positive, or
            fewer than 2 complete rows remain.
    """
    complete = ~np.isnan(prices.prices).any(axis=1)
    kept = prices.prices[complete]
    if kept.shape[0] < 2:
        raise ValidationError(
            f"need at least 2 complete price rows, found {kept.shape[0]}"
        )
    if np.any(kept <= 0.0):
        i, j = np.argwhere(kept <= 0.0)[0]
        day = tuple(np.asarray(prices.dates)[complete])[i]
        raise ValidationError(
            f"price for {prices.names[j]} on {day} is {float(kept[i, j])!r}; "
            "prices must be strictly positive"
        )
    return -np.diff(np.log(kept), axis=0), prices.names


def returns(prices: PriceTable) -> DataMatrix:
    """Loss-return matrix of a price table; see loss_return_values."""
    values, names = loss_return_values(prices)
    return DataMatrix(values=values, column_labels=names)


def min_positive_count(data: DataMatrix) -> int:
    """Minimum over columns of the number of strictly positive entries."""
    return int(np.min(np.sum(data.values > 0.0, axis=0)))


def _parse_float(token: str, row: int, col_name: str) -> float:
    try:
        value = float(token)
    except ValueError:
        raise ParseError(
            f"row {row}, column {col_name!r}: cannot parse {token!r} as a number"
        ) from None
    return value


def _read_rows(text: str, source: str) -> tuple[list[str], list[list[str]]]:
    rows = list(csv.reader(io.StringIO(text)))
    rows = [r for r in rows if r]
    if not rows:
        raise ParseError(f"{source}: empty CSV document")
    header, body = rows[0], rows[1:]
    if len(set(header)) != len(header):
        raise ParseError(f"{source}: header names must be distinct")
    for i, row in enumerate(body, start=2):
        if len(row) != len(header):
            raise ParseError(
                f"{source}: row {i} has {len(row)} fields, header has {len(header)}"
            )
    return header, body


def read_text(path) -> str:
    """A UTF-8 file's text, line endings untranslated.

    Raises:
        ParseError: a byte does not decode; the message names the file
            and the byte's offset.
    """
    raw = Path(path).read_bytes()
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(
            f"{path}: byte {exc.start} (0x{raw[exc.start]:02x}) is not valid UTF-8"
        ) from None


def read_data_csv(path) -> DataMatrix:
    """Read a fully numeric CSV (header row of column labels) as a DataMatrix."""
    header, body = _read_rows(read_text(path), str(path))
    if not body:
        raise ParseError(f"{path}: no data rows")
    values = np.empty((len(body), len(header)))
    for i, row in enumerate(body):
        for j, token in enumerate(row):
            value = _parse_float(token.strip(), i + 2, header[j])
            if not math.isfinite(value):
                raise ParseError(
                    f"row {i + 2}, column {header[j]!r}: non-finite value {token!r}"
                )
            values[i, j] = value
    return DataMatrix(values=values, column_labels=tuple(header))


def write_data_csv(data: DataMatrix, path) -> None:
    """Write a DataMatrix in the pinned dialect; floats round-trip exactly."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow([data.label_of(j) for j in range(1, data.p + 1)])
        for row in data.values:
            writer.writerow([repr(float(v)) for v in row])


def read_price_csv(path) -> PriceTable:
    """Read a price table: first column dates, remaining columns prices.

    Missing prices may be written as empty fields or any of the tokens
    NA, NaN, ND, null (case-insensitive).
    """
    header, body = _read_rows(read_text(path), str(path))
    if len(header) < 2:
        raise ParseError(f"{path}: need a date column plus at least one series")
    if not body:
        raise ParseError(f"{path}: no data rows")
    dates = []
    values = np.empty((len(body), len(header) - 1))
    missing = np.zeros(values.shape, dtype=bool)
    for i, row in enumerate(body):
        day = row[0].strip()
        try:
            date.fromisoformat(day)
        except ValueError:
            raise ParseError(
                f"row {i + 2}, column {header[0]!r}: cannot parse {day!r} as an ISO date"
            ) from None
        dates.append(day)
        for j, token in enumerate(row[1:]):
            token = token.strip()
            if token.lower() in _MISSING_TOKENS:
                values[i, j] = np.nan
                missing[i, j] = True
            else:
                values[i, j] = _parse_float(token, i + 2, header[j + 1])
    bad = ~np.isfinite(values) & ~missing
    if bad.any():
        i, j = np.argwhere(bad)[0]
        raise ParseError(
            f"row {i + 2}, column {header[j + 1]!r}: non-finite price {body[i][j + 1].strip()!r}"
        )
    return PriceTable(dates=tuple(dates), names=tuple(header[1:]), prices=values)
