"""Tests for CSV ingestion, price tables, and loss returns."""

import csv
import math
import re
import tracemalloc
from datetime import date
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from tailcluster import ingest
from tailcluster.core import DataMatrix, ParseError, ValidationError
from tailcluster.ingest import (
    PriceTable,
    min_positive_count,
    read_data_csv,
    read_price_csv,
    returns,
    write_data_csv,
)


def reference_write_data_csv(data: DataMatrix, path) -> None:
    # the csv.writer + repr(float(v)) writer, cell by cell; write_data_csv
    # must produce the same bytes
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow([data.label_of(j) for j in range(1, data.p + 1)])
        for row in data.values:
            writer.writerow([repr(float(v)) for v in row])


def table(dates, names, prices) -> PriceTable:
    # dates are given as ISO strings for brevity; the table holds dates
    days = tuple(date.fromisoformat(d) for d in dates)
    return PriceTable(dates=days, names=tuple(names), prices=np.array(prices))


class TestPriceTable:
    def test_validation(self):
        with pytest.raises(ValidationError):
            table(["2020-01-01"], ["a"], [[1.0]])  # one row
        with pytest.raises(ValidationError):
            table(["2020-01-02", "2020-01-01"], ["a"], [[1.0], [2.0]])
        with pytest.raises(ValidationError):
            table(["2020-01-01", "2020-01-01"], ["a"], [[1.0], [2.0]])
        with pytest.raises(ValidationError):
            table(["2020-01-01", "2020-01-02"], ["a", "a"], [[1, 2], [3, 4]])
        with pytest.raises(ValidationError):
            table(["2020-01-01", "2020-01-02"], ["a"], [[1.0, 2.0], [3.0, 4.0]])

    def test_date_order_error_names_dates_and_position(self):
        dates = ["2020-01-01", "2020-01-02", "2020-01-02", "2020-01-03"]
        with pytest.raises(ValidationError) as exc:
            table(dates, ["a"], [[1.0], [2.0], [3.0], [4.0]])
        assert str(exc.value) == (
            "dates must be strictly increasing: date 3 (2020-01-02) "
            "does not follow date 2 (2020-01-02)"
        )
        backwards = r"date 2 \(2019-12-31\) does not follow date 1 \(2020-01-01\)"
        with pytest.raises(ValidationError, match=backwards):
            table(["2020-01-01", "2019-12-31"], ["a"], [[1.0], [2.0]])

    @pytest.mark.parametrize(
        "token", ["20200102", "2020-W01-4", "2020-1-02", " 2020-01-02", "2020-01-02"]
    )
    def test_dates_must_be_written_yyyy_mm_dd(self, token):
        # the table holds dates: read_price_csv owns the spelling of a
        # date token, and the table parses no strings, in any spelling
        with pytest.raises(ValidationError) as exc:
            PriceTable(dates=(date(2020, 1, 1), token), names=("a",), prices=[[1.0], [2.0]])
        assert str(exc.value) == f"date 2 is {token!r}, not a datetime.date"

    def test_read_only(self):
        prices = np.array([[1.0], [2.0]])
        t = PriceTable(dates=(date(2020, 1, 1), date(2020, 1, 2)), names=("a",), prices=prices)
        with pytest.raises(ValueError):
            t.prices[0, 0] = 5.0
        # the table froze its own copy, not the caller's array
        prices[0, 0] = 5.0
        assert t.prices[0, 0] == 1.0


class TestLossReturnValues:
    def test_two_day_example(self):
        t = table(["2020-01-01", "2020-01-02", "2020-01-03"], ["a"], [[1.0], [math.e], [1.0]])
        data = returns(t)
        assert data.column_labels == ("a",)
        assert data.values[0, 0] == pytest.approx(-1.0, abs=1e-15)
        assert data.values[1, 0] == pytest.approx(1.0, abs=1e-15)

    def test_constant_prices_zero_returns(self):
        t = table(
            ["2020-01-01", "2020-01-02", "2020-01-03"],
            ["a", "b"],
            [[7.0, 3.0], [7.0, 3.0], [7.0, 3.0]],
        )
        assert np.all(returns(t).values == 0.0)

    def test_listwise_deletion_and_gap_crossing(self):
        # second row misses one series: both columns difference across it
        t = table(
            ["2020-01-01", "2020-01-02", "2020-01-03", "2020-01-04"],
            ["a", "b"],
            [[1.0, 2.0], [1.5, np.nan], [4.0, 8.0], [4.0, 8.0]],
        )
        values = returns(t).values
        assert values.shape == (2, 2)
        assert values[0, 0] == pytest.approx(-math.log(4.0 / 1.0), abs=1e-15)
        assert values[0, 1] == pytest.approx(-math.log(8.0 / 2.0), abs=1e-15)

    def test_row_count_is_complete_minus_one(self):
        prices = np.ones((8, 2))
        prices[2, 0] = np.nan
        prices[5, 1] = np.nan
        t = table([f"2020-01-{d:02d}" for d in range(1, 9)], ["a", "b"], prices)
        assert returns(t).n == 6 - 1

    def test_too_few_complete_rows(self):
        t = table(
            ["2020-01-01", "2020-01-02"], ["a"], [[1.0], [np.nan]]
        )
        with pytest.raises(ValidationError, match="complete"):
            returns(t)

    def test_two_complete_rows_rejected_by_name(self):
        # 2 complete rows give 1 return row, fewer than a DataMatrix holds
        t = table(
            ["2020-01-01", "2020-01-02", "2020-01-03"],
            ["a", "b"],
            [[1.0, 2.0], [1.5, np.nan], [4.0, 8.0]],
        )
        with pytest.raises(ValidationError) as exc:
            returns(t)
        assert str(exc.value) == (
            "need at least 3 complete price rows to give 2 return rows, found 2"
        )

    def test_nonpositive_price_names_series_and_date(self):
        t = table(
            ["2020-01-01", "2020-01-02", "2020-01-03"],
            ["aud", "eur"],
            [[1.0, 2.0], [1.0, -3.0], [1.0, 2.0]],
        )
        with pytest.raises(ValidationError) as exc:
            returns(t)
        assert "eur" in str(exc.value)
        assert "2020-01-02" in str(exc.value)

    def test_nonpositive_price_message_prints_a_plain_float(self):
        t = table(
            ["2020-01-01", "2020-01-02", "2020-01-03", "2020-01-04"],
            ["a"],
            [[1.0], [np.nan], [-1.0], [1.0]],
        )
        with pytest.raises(ValidationError) as exc:
            returns(t)
        # the date is the deleted gap's neighbour, not the row at the same position
        assert str(exc.value) == (
            "price for a on 2020-01-03 is -1.0; prices must be strictly positive"
        )

    def test_returns_wraps_datamatrix(self):
        t = table(
            ["2020-01-01", "2020-01-02", "2020-01-03"],
            ["a", "b"],
            [[1.0, 1.0], [2.0, 4.0], [4.0, 16.0]],
        )
        data = returns(t)
        assert isinstance(data, DataMatrix)
        assert data.values.flags.f_contiguous and not data.values.flags.writeable
        assert data.column_labels == ("a", "b")
        expected = np.array([[-math.log(2.0), -math.log(4.0)],
                             [-math.log(2.0), -math.log(4.0)]])
        np.testing.assert_allclose(data.values, expected, rtol=0, atol=1e-15)


class TestMinPositiveCount:
    def test_counts(self):
        data = DataMatrix(values=np.array([[1.0, -1.0], [2.0, 3.0], [0.5, 0.0]]))
        assert min_positive_count(data) == 1


class TestDataCsv:
    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(12)
        data = DataMatrix(
            values=rng.pareto(1.0, size=(20, 3)) + 1e-9,
            column_labels=("x", "y", "z"),
        )
        path = tmp_path / "data.csv"
        write_data_csv(data, path)
        back = read_data_csv(path)
        assert back.column_labels == data.column_labels
        assert np.array_equal(back.values, data.values)
        assert back.values.flags.f_contiguous and not back.values.flags.writeable

    def test_parse_error_location(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n3,x\n", encoding="utf-8")
        with pytest.raises(ParseError, match=r"row 3, column 'b'"):
            read_data_csv(path)

    def test_non_finite_rejected(self, tmp_path):
        path = tmp_path / "inf.csv"
        path.write_text("a\n1\ninf\n", encoding="utf-8")
        with pytest.raises(ParseError) as exc:
            read_data_csv(path)
        assert str(exc.value) == f"{path}: row 3, column 'a': non-finite value 'inf'"

    @pytest.mark.parametrize("token", [" inf", "nan "])
    def test_non_finite_message_quotes_the_stripped_token(self, tmp_path, token):
        # as the price reader's message and every "cannot parse" message do
        path = tmp_path / "inf.csv"
        path.write_text(f"a\n1\n{token}\n", encoding="utf-8")
        with pytest.raises(ParseError) as exc:
            read_data_csv(path)
        assert str(exc.value) == f"{path}: row 3, column 'a': non-finite value {token.strip()!r}"

    def test_structural_errors(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("", encoding="utf-8")
        with pytest.raises(ParseError, match="empty"):
            read_data_csv(empty)

        header_only = tmp_path / "header.csv"
        header_only.write_text("a,b\n", encoding="utf-8")
        with pytest.raises(ParseError, match="no data rows"):
            read_data_csv(header_only)

        dup = tmp_path / "dup.csv"
        dup.write_text("a,a\n1,2\n", encoding="utf-8")
        with pytest.raises(ParseError, match="distinct"):
            read_data_csv(dup)

        ragged = tmp_path / "ragged.csv"
        ragged.write_text("a,b\n1,2\n3\n", encoding="utf-8")
        with pytest.raises(ParseError, match="row 3"):
            read_data_csv(ragged)


class TestPriceCsv:
    def test_reads_dates_and_missing_tokens(self, tmp_path):
        path = tmp_path / "prices.csv"
        path.write_text(
            "date,aud,eur\n"
            "2020-01-01,1.0,2.0\n"
            "2020-01-02,NA,2.1\n"
            "2020-01-03,1.2,nan\n"
            "2020-01-04,1.3,\n"
            "2020-01-05,ND,null\n"
            "2020-01-06,1.5,2.5\n"
            "2020-01-07,1.6,2.6\n",
            encoding="utf-8",
        )
        t = read_price_csv(path)
        assert t.dates[0] == date(2020, 1, 1)
        assert t.names == ("aud", "eur")
        assert np.isnan(t.prices[1, 0])
        assert np.isnan(t.prices[2, 1])
        assert np.isnan(t.prices[3, 1])
        assert np.isnan(t.prices[4, 0]) and np.isnan(t.prices[4, 1])
        # only rows 1, 6 and 7 are complete
        assert returns(t).values.shape == (2, 2)

    def test_needs_series_column(self, tmp_path):
        path = tmp_path / "short.csv"
        path.write_text("date\n2020-01-01\n", encoding="utf-8")
        with pytest.raises(ParseError, match="series"):
            read_price_csv(path)

    def test_header_only_has_no_data_rows(self, tmp_path):
        path = tmp_path / "header.csv"
        path.write_text("date,aud,eur\n", encoding="utf-8")
        with pytest.raises(ParseError) as exc:
            read_price_csv(path)
        assert str(exc.value) == f"{path}: no data rows"

    def test_bad_number_located(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "date,aud\n2020-01-01,1.0\n2020-01-02,oops\n", encoding="utf-8"
        )
        with pytest.raises(ParseError, match=r"row 3, column 'aud'"):
            read_price_csv(path)

    def test_date_order_fault_reported_in_file_order(self, tmp_path):
        # row 4 goes back in time and row 6 does not parse: row 4 is reported
        path = tmp_path / "order.csv"
        path.write_text(
            "date,aud\n2020-01-01,1.0\n2020-01-03,1.1\n2020-01-02,1.2\n"
            "2020-01-04,1.3\n2020-01-05,x\n",
            encoding="utf-8",
        )
        with pytest.raises(ValidationError) as exc:
            read_price_csv(path)
        assert str(exc.value) == (
            f"{path}: row 4, column 'date': date 2020-01-02 does not follow 2020-01-03; "
            "dates must be strictly increasing"
        )
        path.write_text("date,aud\n2020-01-01,1.0\n2020-01-01,1.1\n", encoding="utf-8")
        with pytest.raises(ValidationError, match=r"row 3, column 'date': date 2020-01-01 does not"):
            read_price_csv(path)

    @pytest.mark.parametrize("token", ["inf", "Infinity", "-inf", "-nan"])
    def test_non_finite_price_located(self, tmp_path, token):
        path = tmp_path / "inf.csv"
        path.write_text(
            "date,aud,eur\n2020-01-01,1.0,2.0\n2020-01-02,NA,2.1\n"
            f"2020-01-03,1.2,{token}\n2020-01-04,1.3,inf\n",
            encoding="utf-8",
        )
        with pytest.raises(ParseError) as exc:
            read_price_csv(path)
        assert str(exc.value) == f"{path}: row 4, column 'eur': non-finite price {token!r}"


EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-310,
               1e308, -1e308, 1.7976931348623157e308, 1e16, -1e16, 0.1, 1.0 / 3.0]


@st.composite
def data_matrices(draw):
    n = draw(st.integers(2, 6))
    p = draw(st.integers(1, 4))
    elements = st.one_of(
        st.sampled_from(EDGE_FLOATS), st.floats(allow_nan=False, allow_infinity=False)
    )
    values = draw(arrays(np.float64, (n, p), elements=elements))
    labels = draw(st.lists(
        st.one_of(st.sampled_from(["a,b", '"q"', "x", "y z", "", "c\nd"]),
                  st.text(alphabet='ab,"_ \n', min_size=1, max_size=5)),
        min_size=p, max_size=p, unique=True,
    ))
    return DataMatrix(values=values, column_labels=tuple(labels))


class TestDataCsvWriter:
    @settings(max_examples=150, deadline=None)
    @example(DataMatrix(values=np.array([EDGE_FLOATS, EDGE_FLOATS[::-1]]),
                        column_labels=tuple(f"c{j}" for j in range(len(EDGE_FLOATS)))))
    @given(data=data_matrices())
    def test_matches_reference_writer_and_round_trips(self, tmp_path_factory, data):
        tmp = tmp_path_factory.getbasetemp()
        write_data_csv(data, tmp / "new.csv")
        reference_write_data_csv(data, tmp / "ref.csv")
        assert (tmp / "new.csv").read_bytes() == (tmp / "ref.csv").read_bytes()
        back = read_data_csv(tmp / "new.csv")
        assert back.column_labels == data.column_labels
        assert back.values.tobytes() == data.values.tobytes()


CELL_TOKENS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.sampled_from([
        "1_000", "_1", "2_5e1", "1e308", "-1e308", " 3 ", '"7"',  # underscores, padding, quotes
        "x", "1e", "--1", "0x10",  # bad tokens
        "", "NA", " NaN ", "ND", "null",  # missing tokens
        "nan", "-nan", "inf", "-inf", "Infinity", "1e400",  # non-finite values
    ]),
)


@st.composite
def csv_bodies(draw):
    p = draw(st.integers(1, 4))
    rows = draw(st.lists(st.lists(CELL_TOKENS, min_size=p, max_size=p), min_size=1, max_size=6))
    dates = [f"2020-01-{i:02d}" for i in range(1, len(rows) + 1)]
    bad = draw(st.one_of(st.none(), st.integers(0, len(rows) - 1)))
    if bad is not None:
        dates[bad] = dates[bad].replace("-", "_")
    return p, rows, dates


def _outcome(reader, path):
    try:
        got = reader(path)
    except (ParseError, ValidationError) as exc:
        return type(exc).__name__, str(exc)
    values = got.values if isinstance(got, DataMatrix) else got.prices
    return values.shape, values.tobytes()


class TestReadersMatchPerTokenPath:
    @settings(max_examples=300, deadline=None)
    @example(body=(2, [["1", "2"], ["3", "4"], ["5", "1_000"], ["x", "7"]], [
        "2020-01-01", "2020-01-02", "2020-01-03", "2020-01-04"]))
    @example(body=(2, [["1e308", "1e308"], ["NA", "2"], ["3", ""]], [
        "2020-01-01", "2020-01-02", "2020-01-03"]))
    @given(body=csv_bodies())
    def test_float_map_changes_no_result(self, tmp_path_factory, body):
        # the reference reader sends every row through _data_cells or
        # _price_cells; both readers must give the same array bit for bit
        # (NaN positions included) or the same first error
        p, rows, dates = body
        names = [f"c{j}" for j in range(p)]
        tmp = tmp_path_factory.getbasetemp()
        data_path, price_path = tmp / "body.csv", tmp / "prices.csv"
        data_path.write_text(
            "\n".join([",".join(names), *(",".join(r) for r in rows)]) + "\n", encoding="utf-8"
        )
        price_path.write_text(
            "\n".join([",".join(["date", *names]),
                       *(",".join([d, *r]) for d, r in zip(dates, rows))]) + "\n",
            encoding="utf-8",
        )
        with mock.patch.object(ingest, "_float_map", lambda fields: None):
            want = [_outcome(read_data_csv, data_path), _outcome(read_price_csv, price_path)]
        assert [_outcome(read_data_csv, data_path), _outcome(read_price_csv, price_path)] == want


class TestCsvDialect:
    def test_quoted_crlf_and_padded_tokens(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_bytes(b'a,"b"\r\n"1.5", 2 \r\n\t-0.0\t,"  3e2"\r\n')
        data = read_data_csv(path)
        assert data.column_labels == ("a", "b")
        assert data.values.tobytes() == np.array([[1.5, 2.0], [-0.0, 300.0]]).tobytes()

    def test_blank_lines_do_not_count_as_rows(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,b\n\n1,2\n\n\n3,4\n\n5,x\n", encoding="utf-8")
        with pytest.raises(ParseError) as exc:
            read_data_csv(path)
        assert str(exc.value) == f"{path}: row 4, column 'b': cannot parse 'x' as a number"

    def test_price_row_mixing_missing_tokens_and_numbers(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text(
            "date,a,b,c,d\n"
            "2020-01-01,1.0,2.0,3.0,4.0\n"
            "2020-01-02, NA ,NaN,2.5,nan\n"
            "2020-01-03,1.5,,\"7\",null\n",
            encoding="utf-8",
        )
        t = read_price_csv(path)
        want = np.array([[1.0, 2.0, 3.0, 4.0],
                         [np.nan, np.nan, 2.5, np.nan],
                         [1.5, np.nan, 7.0, np.nan]])
        assert t.prices.tobytes() == want.tobytes()

    @pytest.mark.parametrize("reader, text", [
        (read_data_csv, "a,b\n1,2\n3,x\n4,5\n6,7\n8,9\n1\n"),
        (read_price_csv, "date,a,b\n2020-01-01,1,2\n2020-01-02,3,x\n2020-01-03,4,5\n"
                         "2020-01-04,6,7\n2020-01-05,8,9\n2020-01-06,1\n"),
    ], ids=["data", "price"])
    def test_first_fault_in_file_order(self, tmp_path, reader, text):
        # a bad token on row 3 and a short row on row 7: row 3 is reported
        path = tmp_path / "two.csv"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ParseError) as exc:
            reader(path)
        assert str(exc.value) == f"{path}: row 3, column 'b': cannot parse 'x' as a number"

    @pytest.mark.parametrize("reader, text", [
        (read_data_csv, "a_1,b\n1,2\n3,1_000\n"),
        (read_price_csv, "date,a_1,b\n2020-01-01,1,2\n2020-01-02,3,1_000\n"),
    ], ids=["data", "price"])
    def test_digit_separator_rejected(self, tmp_path, reader, text):
        path = tmp_path / "us.csv"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ParseError) as exc:
            reader(path)
        assert str(exc.value) == f"{path}: row 3, column 'b': cannot parse '1_000' as a number"

    def test_underscore_in_header_keeps_rows_on_the_float_map(self, tmp_path, monkeypatch):
        calls = []
        token_path = ingest._data_cells
        monkeypatch.setattr(ingest, "_data_cells", lambda *a: calls.append(a) or token_path(*a))
        path = tmp_path / "h.csv"
        path.write_text("a_1,b_2\n1,2\n3,4\n", encoding="utf-8")
        assert read_data_csv(path).values.tolist() == [[1.0, 2.0], [3.0, 4.0]]
        assert calls == []
        path.write_text("a_1,b_2\n1,2\n3,4\n5,6_0\n", encoding="utf-8")
        with pytest.raises(ParseError, match="row 4, column 'b_2'"):
            read_data_csv(path)
        assert [a[1] for a in calls] == [4]

    def test_byte_order_mark_dropped(self, tmp_path):
        bom = b"\xef\xbb\xbf"
        path = tmp_path / "bom.csv"
        path.write_bytes(bom + b"a,b\n1,2\n3,4\n")
        assert read_data_csv(path).column_labels == ("a", "b")
        path.write_bytes(bom + b"date,a\n2020-01-01,1\n2020-01-02,2\n")
        assert read_price_csv(path).dates == (date(2020, 1, 1), date(2020, 1, 2))
        path.write_bytes(bom + b"date,a\n2020-01-01,1\n2020/01/02,2\n")
        with pytest.raises(ParseError) as exc:
            read_price_csv(path)
        assert str(exc.value) == (
            f"{path}: row 3, column 'date': cannot parse '2020/01/02' as an ISO date"
        )

    @pytest.mark.parametrize("token", ["20200102", "2020-W01-4"])
    def test_price_dates_must_be_written_yyyy_mm_dd(self, tmp_path, token):
        path = tmp_path / "p.csv"
        path.write_text(f"date,a\n2020-01-01,1\n{token},2\n2020-01-03,3\n", encoding="utf-8")
        with pytest.raises(ParseError) as exc:
            read_price_csv(path)
        assert str(exc.value) == (
            f"{path}: row 3, column 'date': cannot parse {token!r} as an ISO date"
        )

    @pytest.mark.parametrize("reader, text, row", [
        (read_data_csv, "a,b\n1,2\r3,4\n", 2),
        (read_data_csv, "a,b\r1,2\n3,4\n", 1),
        (read_data_csv, "a,b\n\n1,2\n\n3,4\r5,6\n", 3),
        (read_price_csv, "date,a\n2020-01-01,1\n2020-01-02,2\r2020-01-03,3\n", 3),
    ], ids=["data-body", "data-header", "data-after-blank-lines", "price"])
    def test_malformed_csv_names_file_and_row(self, tmp_path, reader, text, row):
        # csv.Error from the csv module becomes a ParseError
        path = tmp_path / "bad.csv"
        path.write_bytes(text.encode("utf-8"))
        with pytest.raises(ParseError, match=rf"^{re.escape(str(path))}: row {row} is not valid CSV \("):
            reader(path)

    def test_read_data_csv_peak_memory(self, tmp_path):
        # 3000 x 200 standard normals, an 11.8 MB file. Reading rows one at
        # a time peaks at 2.0x the file size, when read_text holds the raw
        # bytes and their decoded text; listing every token first, as
        # list(csv.reader(...)) does, peaked at 8.9x
        rng = np.random.default_rng(2024)
        path = tmp_path / "big.csv"
        write_data_csv(DataMatrix(values=rng.standard_normal((3000, 200))), path)
        size = path.stat().st_size
        tracemalloc.start()
        try:
            read_data_csv(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * size
