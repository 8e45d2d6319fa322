"""CSV ingestion: price tables, loss returns, and plain data matrices.

Pinned CSV dialect for every reader and writer here: UTF-8 (one
leading byte-order mark is dropped), comma separator, a header row,
decimal points, no thousands or digit separators ("1,000" is two fields
and "1_000" is rejected). Price tables put dates (written YYYY-MM-DD,
strictly increasing) in the first column; missing prices are written as an empty
field and recognized on input as any of "", "NA", "NaN", "ND", "null"
(case-insensitive). Readers check a file row by row and report its first
fault in file order. read_price_csv parses each date once, so a PriceTable
holds datetime.date values; returns is the one conversion to loss returns.
"""

from __future__ import annotations

import csv
import math
from array import array
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
        dates: strictly increasing datetime.date values, at least 2.
        names: the p series names.
        prices: (len(dates), p) float array with NaN marking a missing
            observation; present prices may be any finite value (sign is
            checked where it matters, at return computation).
    """

    dates: tuple[date, ...]
    names: tuple[str, ...]
    prices: np.ndarray

    def __post_init__(self):
        arr = np.array(self.prices, dtype=float)
        if arr.ndim != 2 or arr.shape != (len(self.dates), len(self.names)):
            raise ValidationError(
                f"prices shape {arr.shape} does not match {len(self.dates)} dates "
                f"x {len(self.names)} series"
            )
        if len(self.dates) < 2:
            raise ValidationError("a price table needs at least 2 rows")
        if len(set(self.names)) != len(self.names):
            raise ValidationError("series names must be distinct")
        for pos, day in enumerate(self.dates, start=1):
            if type(day) is not date:
                raise ValidationError(f"date {pos} is {day!r}, not a datetime.date")
        for pos, (a, b) in enumerate(zip(self.dates, self.dates[1:]), start=2):
            if b <= a:
                raise ValidationError(
                    f"dates must be strictly increasing: date {pos} ({b}) "
                    f"does not follow date {pos - 1} ({a})"
                )
        arr.setflags(write=False)
        object.__setattr__(self, "prices", arr)
        object.__setattr__(self, "dates", tuple(self.dates))
        object.__setattr__(self, "names", tuple(str(s) for s in self.names))


def _iso_date(token: str) -> date | None:
    """The date token spells as YYYY-MM-DD, or None when it is written any other
    way (date.fromisoformat also reads forms such as 20200101 and 2020-W01-3)."""
    try:
        day = date.fromisoformat(token)
    except ValueError:
        return None
    return day if day.isoformat() == token else None


def returns(prices: PriceTable) -> DataMatrix:
    """Loss returns -log(P_t / P_{t-1}) over the complete rows, as a DataMatrix.

    Rows with any missing price are removed first (listwise deletion),
    and differences are then taken between consecutive retained rows,
    including across a deleted gap. m complete rows give m - 1 return
    rows, labelled by the series names.

    Raises:
        ValidationError: fewer than 3 complete rows remain (a DataMatrix
            needs 2 return rows), or a retained price is not strictly
            positive.
    """
    complete = np.flatnonzero(~np.isnan(prices.prices).any(axis=1))
    if complete.size < 3:
        raise ValidationError(
            f"need at least 3 complete price rows to give 2 return rows, found {complete.size}"
        )
    kept = prices.prices[complete]
    if np.any(kept <= 0.0):
        i, j = np.argwhere(kept <= 0.0)[0]
        raise ValidationError(
            f"price for {prices.names[j]} on {prices.dates[complete[i]]} is "
            f"{float(kept[i, j])!r}; prices must be strictly positive"
        )
    return DataMatrix(values=-np.diff(np.log(kept), axis=0), column_labels=prices.names)


def min_positive_count(data: DataMatrix) -> int:
    """Minimum over columns of the number of strictly positive entries."""
    return int(np.min(np.sum(data.values > 0.0, axis=0)))


def _cell(token: str, source: str, row: int, name: str, kind: str) -> float:
    """The cell rule: a stripped token without "_" that parses as a finite float,
    else a ParseError that names the row, the column and the stripped token."""
    token = token.strip()
    try:
        if "_" in token:
            raise ValueError  # float() reads "1_000", which the dialect forbids
        value = float(token)
    except ValueError:
        raise ParseError(f"{source}: row {row}, column {name!r}: cannot parse {token!r} "
                         "as a number") from None
    if not math.isfinite(value):
        raise ParseError(f"{source}: row {row}, column {name!r}: non-finite {kind} {token!r}")
    return value


def _lines(text: str):
    """text's lines with their ends, split at "\\n" alone as io.StringIO splits
    them, without io.StringIO's four-bytes-a-character copy of the text."""
    start = 0
    while start < len(text):
        end = text.find("\n", start) + 1 or len(text)
        yield text[start:end]
        start = end


def _read_rows(text: str, source: str):
    """The header and an iterator over the body, checked as it is read.

    The iterator yields (row, fields) for each non-empty row; row numbers
    count non-empty rows, the header being row 1.
    """
    rows = filter(None, csv.reader(_lines(text)))
    try:
        header = next(rows, None)
    except csv.Error as exc:
        raise ParseError(f"{source}: row 1 is not valid CSV ({exc})") from None
    if header is None:
        raise ParseError(f"{source}: empty CSV document")
    if len(set(header)) != len(header):
        raise ParseError(f"{source}: header names must be distinct")

    def body():
        i = 1
        try:
            for i, row in enumerate(rows, start=2):
                if len(row) != len(header):
                    raise ParseError(
                        f"{source}: row {i} has {len(row)} fields, header has {len(header)}"
                    )
                yield i, row
        except csv.Error as exc:
            # raised while reading the row after row i
            raise ParseError(f"{source}: row {i + 1} is not valid CSV ({exc})") from None

    return header, body()


def _float_map(fields: list[str]) -> list[float] | None:
    """fields parsed by one float map, or None when a field does not parse,
    is not finite or holds a "_" (float() reads "1_000" as 1000.0, which the
    dialect forbids), and the per-token path must decide."""
    if "_" in "".join(fields):
        return None
    try:
        cells = list(map(float, fields))
    except ValueError:
        return None
    # a sum of finite values can overflow: that row just takes the slow path
    return cells if math.isfinite(sum(cells)) else None


def read_text(path) -> str:
    """A UTF-8 file's text, line endings untranslated, one leading BOM removed.

    Raises:
        ParseError: a byte does not decode; the message names the file
            and the byte's offset from the start of the file.
    """
    raw = Path(path).read_bytes()
    try:
        return raw.decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        raise ParseError(
            f"{path}: byte {exc.start} (0x{raw[exc.start]:02x}) is not valid UTF-8"
        ) from None


def _data_cells(row: list[str], i: int, header: list[str], source: str) -> list[float]:
    return [_cell(token, source, i, name, "value") for name, token in zip(header, row)]


def read_data_csv(path) -> DataMatrix:
    """Read a fully numeric CSV (header row of column labels) as a DataMatrix."""
    header, body = _read_rows(read_text(path), str(path))
    cells = array("d")
    for i, row in body:
        parsed = _float_map(row)
        cells.extend(_data_cells(row, i, header, str(path)) if parsed is None else parsed)
    if not cells:
        raise ParseError(f"{path}: no data rows")
    values = np.frombuffer(cells).reshape(-1, len(header))
    return DataMatrix(values=values, column_labels=tuple(header))


def write_data_csv(data: DataMatrix, path) -> None:
    """Write a DataMatrix in the pinned dialect; floats round-trip exactly."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerow(
            [data.label_of(j) for j in range(1, data.p + 1)]
        )
        # repr never yields a character csv.writer would quote
        fh.writelines(",".join(map(repr, row.tolist())) + "\n" for row in data.values)


def _price_cells(row: list[str], i: int, header: list[str], source: str) -> list[float]:
    return [math.nan if t.strip().lower() in _MISSING_TOKENS else _cell(t, source, i, name, "price")
            for name, t in zip(header[1:], row[1:])]


def read_price_csv(path) -> PriceTable:
    """Read a price table: first column dates, remaining columns prices.

    Each date token must be written YYYY-MM-DD, after the previous row's date,
    and is parsed once, here. Missing prices may be written as empty fields
    or any of the tokens NA, NaN, ND, null (case-insensitive).
    """
    header, body = _read_rows(read_text(path), str(path))
    if len(header) < 2:
        raise ParseError(f"{path}: need a date column plus at least one series")
    dates = []
    cells = array("d")
    for i, row in body:
        token = row[0].strip()
        if (day := _iso_date(token)) is None:
            raise ParseError(
                f"{path}: row {i}, column {header[0]!r}: cannot parse {token!r} as an ISO date"
            )
        if dates and day <= dates[-1]:
            raise ValidationError(f"{path}: row {i}, column {header[0]!r}: date {day} does not "
                                  f"follow {dates[-1]}; dates must be strictly increasing")
        dates.append(day)
        # a missing token (NA, NaN, ...) fails the map or reads as NaN
        parsed = _float_map(row[1:])
        cells.extend(_price_cells(row, i, header, str(path)) if parsed is None else parsed)
    if not dates:
        raise ParseError(f"{path}: no data rows")
    prices = np.frombuffer(cells).reshape(-1, len(header) - 1)
    return PriceTable(dates=tuple(dates), names=tuple(header[1:]), prices=prices)
