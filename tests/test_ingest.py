"""Tests for CSV ingestion, price tables, and loss returns."""

import math

import numpy as np
import pytest

from tailcluster.core import DataMatrix, ParseError, ValidationError
from tailcluster.ingest import (
    PriceTable,
    loss_return_values,
    min_positive_count,
    read_data_csv,
    read_price_csv,
    returns,
    write_data_csv,
)


def table(dates, names, prices) -> PriceTable:
    return PriceTable(dates=tuple(dates), names=tuple(names), prices=np.array(prices))


class TestPriceTable:
    def test_validation(self):
        with pytest.raises(ValidationError):
            table(["2020-01-01"], ["a"], [[1.0]])  # one row
        with pytest.raises(ValidationError):
            table(["2020-01-02", "2020-01-01"], ["a"], [[1.0], [2.0]])
        with pytest.raises(ValidationError):
            table(["2020-01-01", "2020-01-01"], ["a"], [[1.0], [2.0]])
        with pytest.raises(ValidationError):
            table(["1/1/2020", "1/2/2020"], ["a"], [[1.0], [2.0]])
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

    def test_read_only(self):
        t = table(["2020-01-01", "2020-01-02"], ["a"], [[1.0], [2.0]])
        with pytest.raises(ValueError):
            t.prices[0, 0] = 5.0


class TestLossReturnValues:
    def test_two_day_example(self):
        t = table(["2020-01-01", "2020-01-02"], ["a"], [[1.0], [math.e]])
        values, names = loss_return_values(t)
        assert names == ("a",)
        assert values[0, 0] == pytest.approx(-1.0, abs=1e-15)

    def test_constant_prices_zero_returns(self):
        t = table(
            ["2020-01-01", "2020-01-02", "2020-01-03"],
            ["a", "b"],
            [[7.0, 3.0], [7.0, 3.0], [7.0, 3.0]],
        )
        values, _ = loss_return_values(t)
        assert np.all(values == 0.0)

    def test_listwise_deletion_and_gap_crossing(self):
        # middle row misses one series: both columns difference across it
        t = table(
            ["2020-01-01", "2020-01-02", "2020-01-03"],
            ["a", "b"],
            [[1.0, 2.0], [1.5, np.nan], [4.0, 8.0]],
        )
        values, _ = loss_return_values(t)
        assert values.shape == (1, 2)
        assert values[0, 0] == pytest.approx(-math.log(4.0 / 1.0), abs=1e-15)
        assert values[0, 1] == pytest.approx(-math.log(8.0 / 2.0), abs=1e-15)

    def test_row_count_is_complete_minus_one(self):
        prices = np.ones((8, 2))
        prices[2, 0] = np.nan
        prices[5, 1] = np.nan
        t = table([f"2020-01-{d:02d}" for d in range(1, 9)], ["a", "b"], prices)
        values, _ = loss_return_values(t)
        assert values.shape[0] == 6 - 1

    def test_too_few_complete_rows(self):
        t = table(
            ["2020-01-01", "2020-01-02"], ["a"], [[1.0], [np.nan]]
        )
        with pytest.raises(ValidationError, match="complete"):
            loss_return_values(t)

    def test_nonpositive_price_names_series_and_date(self):
        t = table(
            ["2020-01-01", "2020-01-02"], ["aud", "eur"], [[1.0, 2.0], [1.0, -3.0]]
        )
        with pytest.raises(ValidationError) as exc:
            loss_return_values(t)
        assert "eur" in str(exc.value)
        assert "2020-01-02" in str(exc.value)

    def test_returns_wraps_datamatrix(self):
        t = table(
            ["2020-01-01", "2020-01-02", "2020-01-03"],
            ["a", "b"],
            [[1.0, 1.0], [2.0, 4.0], [4.0, 16.0]],
        )
        data = returns(t)
        assert isinstance(data, DataMatrix)
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

    def test_parse_error_location(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n3,x\n", encoding="utf-8")
        with pytest.raises(ParseError, match=r"row 3, column 'b'"):
            read_data_csv(path)

    def test_non_finite_rejected(self, tmp_path):
        path = tmp_path / "inf.csv"
        path.write_text("a\n1\ninf\n", encoding="utf-8")
        with pytest.raises(ParseError, match="non-finite"):
            read_data_csv(path)

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
            "2020-01-06,1.5,2.5\n",
            encoding="utf-8",
        )
        t = read_price_csv(path)
        assert t.dates[0] == "2020-01-01"
        assert t.names == ("aud", "eur")
        assert np.isnan(t.prices[1, 0])
        assert np.isnan(t.prices[2, 1])
        assert np.isnan(t.prices[3, 1])
        assert np.isnan(t.prices[4, 0]) and np.isnan(t.prices[4, 1])
        # only rows 1 and 6 are complete
        values, _ = loss_return_values(t)
        assert values.shape == (1, 2)

    def test_needs_series_column(self, tmp_path):
        path = tmp_path / "short.csv"
        path.write_text("date\n2020-01-01\n", encoding="utf-8")
        with pytest.raises(ParseError, match="series"):
            read_price_csv(path)

    def test_bad_number_located(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "date,aud\n2020-01-01,1.0\n2020-01-02,oops\n", encoding="utf-8"
        )
        with pytest.raises(ParseError, match=r"row 3, column 'aud'"):
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
        assert str(exc.value) == f"row 4, column 'eur': non-finite price {token!r}"
