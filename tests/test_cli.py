"""End-to-end tests for the command-line interface.

Every test drives cli.main(argv) in-process and inspects the files or
stdout it produces, so exit codes and output layout are covered exactly
as a shell user would see them.
"""

import json
import math
import shlex
from datetime import date, timedelta
from pathlib import Path

import numpy as np
import pytest

from tailcluster import cluster_unknown_g, ClusterParams, generate, SimModelSpec
from tailcluster import bench, cli
from tailcluster import hill as hill_module
from tailcluster.bench import CSV_COLUMNS, parse_report
from tailcluster.cli import main
from tailcluster.core import SCHEMA_VERSION, resolve_params
from tailcluster.ingest import (
    min_positive_count,
    read_data_csv,
    read_price_csv,
    returns,
    write_data_csv,
)

HAND_CSV = (
    "heavy,light\n"
    "1,1\n"
    "2,1.2\n"
    "3,1.4\n"
    "4,1.6\n"
    "5,1.8\n"
    "100,1.9\n"
)

PRICE_CSV = (
    "date,aud,eur\n"
    "2020-01-01,1.0,2.0\n"
    "2020-01-02,1.1,NA\n"
    "2020-01-03,1.2,2.2\n"
    "2020-01-04,1.3,2.3\n"
)


@pytest.fixture(autouse=True)
def _isolated_cwd(tmp_path, monkeypatch):
    # keep relative outputs inside the test dir, env resolution off by default
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("TAILCLUSTER_OUTPUT_DIR", raising=False)
    return tmp_path


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestCluster:
    def test_hand_example_auto_g(self, tmp_path):
        inp = write(tmp_path, "hand.csv", HAND_CSV)
        rc = main(
            ["cluster", inp, "--auto-g", "--k", "2", "--k-star", "4",
             "--beta", "0.5", "--output", "out.json"]
        )
        assert rc == 0
        payload = json.loads((tmp_path / "out.json").read_text())
        assert payload["groups"] == [["heavy"], ["light"]]
        assert payload["group_indices"] == [[1], [2]]
        assert payload["num_groups"] == 2
        assert payload["params"]["k"] == 2
        assert payload["params"]["defaults_used"] == []
        assert [c["group"] for c in payload["columns"]] == [1, 2]

    def test_known_g_one_has_empty_trace(self, tmp_path):
        inp = write(tmp_path, "hand.csv", HAND_CSV)
        rc = main(
            ["cluster", inp, "--known-g", "1", "--k", "2", "--k-star", "4",
             "--beta", "0.5", "--output", "out.json"]
        )
        assert rc == 0
        payload = json.loads((tmp_path / "out.json").read_text())
        assert payload["groups"] == [["heavy", "light"]]
        assert payload["trace"] == []
        assert payload["params"]["known_g"] == 1

    def test_trace_names_columns(self, tmp_path):
        inp = write(tmp_path, "hand.csv", HAND_CSV)
        main(
            ["cluster", inp, "--known-g", "2", "--k", "2", "--k-star", "4",
             "--beta", "0.5", "--output", "out.json"]
        )
        payload = json.loads((tmp_path / "out.json").read_text())
        (step,) = payload["trace"]
        assert step["active"] == ["heavy", "light"]
        assert step["extracted"] == ["heavy"]
        assert step["threshold"] == pytest.approx(1.9 / 1.2)
        assert set(step["column_stats"]) == {"heavy", "light"}

    def test_matches_library_on_simulated_data(self, tmp_path):
        rc = main(
            ["simulate", "--model", "A", "--g", "2", "--q", "3",
             "--delta", "0.5", "--n", "150", "--seed", "5", "--out", "sim"]
        )
        assert rc == 0
        data, truth = generate(SimModelSpec(model="A", g=2, q=3, delta=0.5, n=150, seed=5))
        back = read_data_csv(tmp_path / "sim.csv")
        # repr-based CSV serialization must round-trip bit for bit
        assert np.array_equal(back.values, data.values)

        rc = main(["cluster", str(tmp_path / "sim.csv"), "--auto-g", "--output", "c.json"])
        assert rc == 0
        payload = json.loads((tmp_path / "c.json").read_text())
        part, _ = cluster_unknown_g(data, _params_from(payload))
        assert [list(grp) for grp in part.groups] == payload["group_indices"]

    @pytest.mark.parametrize("mode", [["--auto-g"], ["--known-g", "2"]])
    def test_one_hill_pass(self, tmp_path, monkeypatch, mode):
        # one call per column estimate: a Hill pass is p of them
        calls = []
        real = hill_module._gamma

        def counting(arr, k, column=None):
            calls.append(k)
            return real(arr, k, column)

        monkeypatch.setattr(hill_module, "_gamma", counting)
        data, _ = generate(SimModelSpec(model="A", g=2, q=3, delta=0.5, n=300, seed=2))
        inp = tmp_path / "d.csv"
        write_data_csv(data, inp)
        assert main(["cluster", str(inp), *mode, "--k-hill", "6", "-o", "out.json"]) == 0
        assert calls == [6] * data.p

    def test_prices_path(self, tmp_path):
        # a price table reaches cluster through returns
        inp = write(tmp_path, "prices.csv", PRICE_CSV)
        assert main(["returns", inp, "--output", "ret.csv"]) == 0
        rc = main(
            ["cluster", "ret.csv", "--known-g", "1", "--k", "1",
             "--k-star", "1", "--beta", "0.5", "--output", "out.json"]
        )
        # only 2 return rows and k == k_star: validation must reject it
        assert rc == 3

    def test_price_table_with_gaps_through_returns(self, tmp_path):
        rng = np.random.default_rng(31)
        prices = 100.0 * np.exp(np.cumsum(0.01 * rng.standard_t(2.5, size=(400, 6)), axis=0))
        gaps = rng.random(prices.shape) < 0.005
        rows = [
            f"{date(2020, 1, 1) + timedelta(days=i)},"
            + ",".join(("NA" if j % 2 else "") if gap else repr(v)
                       for j, (v, gap) in enumerate(zip(row, mask)))
            for i, (row, mask) in enumerate(zip(prices.tolist(), gaps))
        ]
        inp = write(tmp_path, "p.csv", "date,a,b,c,d,e,f\n" + "\n".join(rows) + "\n")
        assert main(["returns", inp, "--output", "ret.csv"]) == 0
        assert main(["cluster", "ret.csv", "--auto-g", "--output", "out.json"]) == 0
        payload = json.loads((tmp_path / "out.json").read_text())
        data = returns(read_price_csv(inp))
        assert data.n < len(rows) - 1  # listwise deletion dropped the gap rows
        assert read_data_csv(tmp_path / "ret.csv").values.tobytes() == data.values.tobytes()
        params, _ = resolve_params(data.p, min_positive_count(data))
        part, _ = cluster_unknown_g(data, params)
        assert payload["groups"] == [[data.label_of(j) for j in grp] for grp in part.groups]

    def test_single_column_hint(self, tmp_path, capsys):
        inp = write(tmp_path, "one.csv", "a\n" + "\n".join(str(v) for v in range(1, 9)) + "\n")
        assert main(["cluster", inp, "--auto-g"]) == 3
        assert capsys.readouterr().err == (
            "error: p must be >= 2, got 1: the default parameter formulas need it; "
            "give k and k_star explicitly for single-column data\n"
        )

    @pytest.mark.parametrize("mode", [["--auto-g"], ["--known-g", "2"]])
    def test_bad_ci_fails_before_any_work(self, tmp_path, monkeypatch, capsys, mode):
        calls = []
        for name in ("cluster_unknown_g", "cluster_known_g", "hill_gammas"):
            real = getattr(cli, name)
            monkeypatch.setattr(cli, name, lambda *a, real=real, name=name: calls.append(name) or real(*a))
        inp = write(tmp_path, "hand.csv", HAND_CSV)
        assert main(["cluster", inp, *mode, "--ci", "1.5"]) == 3
        assert capsys.readouterr().err == "error: level must lie in (0, 1), got 1.5\n"
        assert calls == []

    def test_nonpositive_threshold_names_column_label(self, tmp_path, capsys):
        # beta has 10 positive values of 60, so its 31st largest is 0
        rows = [f"{i},{i if i <= 10 else 0},{2 * i}" for i in range(1, 61)]
        inp = write(tmp_path, "zeros.csv", "alpha,beta,gamma\n" + "\n".join(rows) + "\n")
        assert main(["cluster", inp, "--auto-g", "--k", "2", "--k-star", "30"]) == 3
        assert capsys.readouterr().err.startswith(
            "error: scaling denominator for column beta is 0.0;"
        )


def _params_from(payload):
    p = payload["params"]
    return ClusterParams(k=p["k"], k_star=p["k_star"], beta=p["beta"])


class TestHill:
    def test_json_example(self, tmp_path):
        rows = "\n".join(["x", repr(math.e ** 2), repr(math.e), "1.0"])
        inp = write(tmp_path, "col.csv", rows + "\n")
        rc = main(["hill", inp, "--k", "2", "--output", "h.json"])
        assert rc == 0
        payload = json.loads((tmp_path / "h.json").read_text())
        (col,) = payload["columns"]
        assert col["label"] == "x"
        assert col["gamma_hat"] == pytest.approx(1.5, abs=1e-12)
        assert col["k_used"] == 2
        assert col["ci_low"] < 1.5 < col["ci_high"]
        assert col["ci_method"] == "asymptotic_normal"

    def test_csv_format(self, tmp_path, capsys):
        rows = "\n".join(["x", repr(math.e ** 2), repr(math.e), "1.0"])
        inp = write(tmp_path, "col.csv", rows + "\n")
        rc = main(["hill", inp, "--k", "2", "--format", "csv"])
        assert rc == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert out[0] == "label,gamma_hat,k_used,ci_low,ci_high"
        fields = out[1].split(",")
        assert fields[0] == "x"
        assert float(fields[1]) == pytest.approx(1.5, abs=1e-12)

    def test_zero_estimate_band_is_positive_zero(self, tmp_path, capsys):
        # column a ties at its top three values, so its estimate is 0; at
        # k=2 the band's factor 1 - z/sqrt(2) is negative
        inp = write(tmp_path, "tie.csv", "a,b\n1,5\n3,3\n3,3\n3,3\n2,1\n0.5,2\n")
        assert main(["hill", inp, "--k", "2", "--format", "csv"]) == 0
        assert capsys.readouterr().out.splitlines()[1] == "a,0.0,2,0.0,0.0"
        assert main(["hill", inp, "--k", "2"]) == 0
        (col, _) = json.loads(capsys.readouterr().out)["columns"]
        assert col["ci_low"] == 0.0 and math.copysign(1.0, col["ci_low"]) == 1.0

    def test_byte_order_mark_not_in_label(self, tmp_path, capsys):
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbfa,b\n3,1\n2,2\n1,3\n")
        assert main(["hill", str(path), "--k", "2", "--format", "csv"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert [line.split(",")[0] for line in out[1:]] == ["a", "b"]

    def test_default_k_is_the_formula_k(self, tmp_path, capsys):
        data, _ = generate(SimModelSpec(model="A", g=2, q=3, delta=0.5, n=300, seed=3))
        inp = tmp_path / "d.csv"
        write_data_csv(data, inp)
        k = resolve_params(data.p, min_positive_count(data))[0].k
        for fmt in ("json", "csv"):
            assert main(["hill", str(inp), "--format", fmt]) == 0
            default = capsys.readouterr().out
            assert main(["hill", str(inp), "--k", str(k), "--format", fmt]) == 0
            assert capsys.readouterr().out == default

    def test_bad_ci_fails_before_the_hill_pass(self, tmp_path, monkeypatch, capsys):
        calls = []
        monkeypatch.setattr(cli, "hill_gammas", lambda *a: calls.append(a))
        inp = write(tmp_path, "hand.csv", HAND_CSV)
        assert main(["hill", inp, "--ci", "1.5"]) == 3
        assert capsys.readouterr().err == "error: level must lie in (0, 1), got 1.5\n"
        assert calls == []

    def test_k_out_of_range_named_by_the_hill_pass(self, tmp_path, capsys):
        inp = write(tmp_path, "hand.csv", HAND_CSV)
        assert main(["hill", inp, "--k", "0"]) == 3
        assert capsys.readouterr().err == "error: k=0 out of range [1, 5]\n"

    def test_nonpositive_order_stat_names_column(self, tmp_path, capsys):
        inp = write(tmp_path, "neg.csv", "pos,neg\n3,1\n2,-1\n1,-2\n")
        assert main(["hill", inp, "--k", "1"]) == 3
        assert "column neg" in capsys.readouterr().err


class TestSimulate:
    def test_sidecar_records_truth(self, tmp_path):
        main(
            ["simulate", "--model", "B", "--g", "3", "--q", "2",
             "--delta", "0.4", "--n", "50", "--seed", "9", "--out", "s"]
        )
        sidecar = json.loads((tmp_path / "s.json").read_text())
        assert sidecar["spec"]["model"] == "B"
        assert sidecar["spec"]["p"] == 6
        assert sidecar["truth"]["labels"] == [1, 1, 2, 2, 3, 3]
        assert sidecar["truth"]["gammas"] == pytest.approx([1.0, 0.6, 0.36])
        assert sidecar["oracle_only"] is False

    def test_exact_pareto_flagged_oracle_only(self, tmp_path):
        main(
            ["simulate", "--model", "EXACT_PARETO", "--g", "1", "--q", "2",
             "--delta", "0.5", "--n", "30", "--seed", "1", "--out", "s"]
        )
        sidecar = json.loads((tmp_path / "s.json").read_text())
        assert sidecar["oracle_only"] is True

    def test_same_seed_same_files(self, tmp_path):
        argv = ["simulate", "--model", "C", "--g", "2", "--q", "2",
                "--delta", "0.5", "--n", "40", "--seed", "3"]
        main(argv + ["--out", "one"])
        main(argv + ["--out", "two"])
        assert (tmp_path / "one.csv").read_bytes() == (tmp_path / "two.csv").read_bytes()


class TestBench:
    CONFIG = {
        "model": "EXACT_PARETO",
        "n": 300,
        "reps": 2,
        "master_seed": 11,
        "methods": ["proposed_known_g"],
        "g": [2],
        "q": [2],
        "delta": [0.5],
    }

    def test_config_file_run(self, tmp_path):
        cfg = write(tmp_path, "cfg.json", json.dumps(self.CONFIG))
        rc = main(["bench", "--config", cfg, "--out", "b"])
        assert rc == 0
        report = parse_report((tmp_path / "b.json").read_bytes())
        assert report.reps == 2
        assert len(report.points) == 1
        lines = (tmp_path / "b.csv").read_text().strip().splitlines()
        assert lines[0] == CSV_COLUMNS
        assert len(lines) == 2

    def test_reps_and_seed_flags_override(self, tmp_path):
        cfg = write(tmp_path, "cfg.json", json.dumps(self.CONFIG))
        main(["bench", "--config", cfg, "--reps", "1", "--seed", "77", "--out", "b"])
        report = parse_report((tmp_path / "b.json").read_bytes())
        assert report.reps == 1
        assert report.master_seed == 77

    def test_config_list_merges(self, tmp_path):
        second = dict(self.CONFIG, q=[3])
        cfg = write(tmp_path, "cfg.json", json.dumps([self.CONFIG, second]))
        rc = main(["bench", "--config", cfg, "--out", "b"])
        assert rc == 0
        report = parse_report((tmp_path / "b.json").read_bytes())
        assert [pt.q for pt in report.points] == [2, 3]

    def test_unknown_field_rejected(self, tmp_path):
        cfg = write(tmp_path, "cfg.json", json.dumps(dict(self.CONFIG, bogus=1)))
        assert main(["bench", "--config", cfg, "--out", "b"]) == 2

    @pytest.mark.parametrize("field, value", [("k_hill", 5), ("include_raw_hill", True)])
    def test_removed_field_named(self, tmp_path, capsys, field, value):
        cfg = write(tmp_path, "cfg.json", json.dumps({**self.CONFIG, field: value}))
        assert main(["bench", "--config", cfg, "--out", "b"]) == 2
        assert f"config 0: unknown fields ['{field}']" in capsys.readouterr().err

    def test_raw_hill_method_runs(self, tmp_path):
        doc = dict(self.CONFIG, methods=["proposed_known_g", "raw_hill"])
        cfg = write(tmp_path, "cfg.json", json.dumps(doc))
        assert main(["bench", "--config", cfg, "--out", "b"]) == 0
        report = parse_report((tmp_path / "b.json").read_bytes())
        assert report.methods == ("proposed_known_g", "raw_hill")
        rows = (tmp_path / "b.csv").read_text().strip().splitlines()[1:]
        assert [r.split(",")[8] for r in rows] == ["proposed_known_g", "raw_hill"]
        assert rows[1].split(",")[11] == ""  # raw_hill has no accuracy

    @pytest.mark.parametrize(
        "doc, field",
        [
            ({"model": "A", "n": 100, "reps": 1, "g": 3}, "config 0.g: expected a list"),
            ({"model": "A", "n": "100", "reps": 1}, "config 0.n: expected int"),
            ({"n": 100, "reps": 1}, "config 0.model: missing"),
        ],
    )
    def test_mistyped_or_missing_field_named(self, tmp_path, capsys, doc, field):
        cfg = write(tmp_path, "cfg.json", json.dumps(doc))
        assert main(["bench", "--config", cfg, "--out", "b"]) == 2
        assert field in capsys.readouterr().err

    def test_template_mismatch_rejected_before_any_sweep(self, tmp_path, capsys, monkeypatch):
        def no_replication(*args, **kwargs):
            raise AssertionError("run_replication called")

        monkeypatch.setattr(bench, "run_replication", no_replication)
        docs = [dict(self.CONFIG, model="B"), dict(self.CONFIG, model="A")]
        cfg = write(tmp_path, "cfg.json", json.dumps(docs))
        assert main(["bench", "--config", cfg, "--out", "b"]) == 3
        assert capsys.readouterr().err == (
            "error: sweep 1 differs from sweep 0 in model: 'A' != 'B'\n"
        )
        assert not (tmp_path / "b.json").exists()

    def test_empty_config_list_rejected(self, tmp_path, capsys):
        cfg = write(tmp_path, "cfg.json", "[]")
        assert main(["bench", "--config", cfg, "--out", "b"]) == 3
        assert "no sweeps" in capsys.readouterr().err

    def test_float_field_out_of_range_named(self, tmp_path, capsys):
        # an int too large for a float is a parse error, not a crash
        raw = json.dumps(dict(self.CONFIG, delta=[10**400]))
        cfg = write(tmp_path, "cfg.json", raw)
        assert main(["bench", "--config", cfg, "--out", "b"]) == 2
        assert "config 0.delta[0]: " in capsys.readouterr().err

    def test_config_with_byte_order_mark(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_bytes(b"\xef\xbb\xbf" + json.dumps(self.CONFIG).encode("utf-8"))
        assert main(["bench", "--config", str(path), "--out", "b"]) == 0
        assert parse_report((tmp_path / "b.json").read_bytes()).reps == 2

    def test_invalid_json_rejected(self, tmp_path):
        cfg = write(tmp_path, "cfg.json", "{not json")
        assert main(["bench", "--config", cfg, "--out", "b"]) == 2

    def test_zero_workers_is_validation_exit(self, tmp_path, capsys):
        cfg = write(tmp_path, "cfg.json", json.dumps(self.CONFIG))
        assert main(["bench", "--config", cfg, "--workers", "0", "--out", "b"]) == 3
        assert "workers" in capsys.readouterr().err

    def test_negative_seed_flag_is_validation_exit(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(bench, "run_replication", lambda *a: pytest.fail("ran"))
        argv = ["bench", "--preset", "fig1", "--reps", "1", "--seed", "-1", "--out", "b"]
        assert main(argv) == 3
        assert capsys.readouterr().err == "error: master_seed must be >= 0, got -1\n"
        assert not (tmp_path / "b.json").exists()

    def test_negative_master_seed_in_config_is_validation_exit(self, tmp_path, capsys):
        cfg = write(tmp_path, "cfg.json", json.dumps(dict(self.CONFIG, master_seed=-1)))
        assert main(["bench", "--config", cfg, "--out", "b"]) == 3
        assert capsys.readouterr().err == "error: master_seed must be >= 0, got -1\n"

    def test_empty_method_list_is_validation_exit(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(bench, "run_replication", lambda *a: pytest.fail("ran"))
        cfg = write(tmp_path, "cfg.json", json.dumps(dict(self.CONFIG, methods=[])))
        assert main(["bench", "--config", cfg, "--out", "b"]) == 3
        assert capsys.readouterr().err == "error: methods must not be empty\n"
        assert not (tmp_path / "b.json").exists() and not (tmp_path / "b.csv").exists()


class TestReturns:
    def test_writes_loss_returns(self, tmp_path, capsys):
        inp = write(tmp_path, "prices.csv", PRICE_CSV)
        rc = main(["returns", inp, "--output", "ret.csv"])
        assert rc == 0
        data = read_data_csv(tmp_path / "ret.csv")
        # 3 complete rows -> 2 returns; eur row 2 is missing
        assert data.n == 2 and data.p == 2
        assert data.column_labels == ("aud", "eur")
        assert data.values[0, 0] == pytest.approx(-math.log(1.2 / 1.0))
        assert "2 return rows" in capsys.readouterr().out

    def test_non_iso_dates_out_of_order_rejected(self, tmp_path, capsys):
        # as strings these increase, as dates the last one is the earliest
        inp = write(tmp_path, "p.csv", (
            "date,a,b\n10/1/2020,1.0,2.0\n11/1/2020,1.1,2.1\n9/1/2020,1.2,2.2\n"
        ))
        assert main(["returns", inp, "--output", "ret.csv"]) == 2
        assert "row 2, column 'date'" in capsys.readouterr().err

    def test_non_iso_dates_in_order_rejected_as_parse_error(self, tmp_path, capsys):
        # increasing as dates, not as strings
        inp = write(tmp_path, "p.csv", (
            "date,a,b\n9/30/2020,1.0,2.0\n10/1/2020,1.1,2.1\n10/2/2020,1.2,2.2\n"
        ))
        assert main(["returns", inp, "--output", "ret.csv"]) == 2
        assert "row 2, column 'date'" in capsys.readouterr().err

    def test_two_complete_rows_is_validation_exit(self, tmp_path, capsys):
        inp = write(tmp_path, "p.csv", "date,a,b\n2020-01-01,1.0,2.0\n2020-01-02,1.1,2.1\n")
        assert main(["returns", inp, "--output", "ret.csv"]) == 3
        assert capsys.readouterr().err == (
            "error: need at least 3 complete price rows to give 2 return rows, found 2\n"
        )
        assert not (tmp_path / "ret.csv").exists()

    def test_nonpositive_price_is_validation_exit(self, tmp_path, capsys):
        inp = write(tmp_path, "p.csv", "date,a\n2020-01-01,1.0\n2020-01-02,-1.0\n2020-01-03,1.0\n")
        assert main(["returns", inp, "--output", "ret.csv"]) == 3
        assert "price for a on 2020-01-02 is -1.0; " in capsys.readouterr().err
        assert not (tmp_path / "ret.csv").exists()

    def test_infinite_price_is_parse_exit(self, tmp_path, capsys):
        inp = write(tmp_path, "p.csv", (
            "date,a,b\n2020-01-01,1.0,2.0\n2020-01-02,1.1,infinity\n"
            "2020-01-03,1.2,2.2\n2020-01-04,1.3,2.3\n"
        ))
        assert main(["returns", inp, "--output", "ret.csv"]) == 2
        assert capsys.readouterr().err == (
            f"error: {inp}: row 3, column 'b': non-finite price 'infinity'\n"
        )
        assert not (tmp_path / "ret.csv").exists()


class TestExitCodes:
    def test_missing_file_is_parse_exit(self):
        assert main(["cluster", "definitely-missing.csv", "--auto-g"]) == 2

    def test_bad_token_is_parse_exit(self, tmp_path):
        inp = write(tmp_path, "bad.csv", "a,b\n1,2\n3,zebra\n")
        assert main(["cluster", inp, "--auto-g"]) == 2

    @pytest.mark.parametrize(
        "argv, blob, offset",
        [
            (["cluster", "IN", "--auto-g"], b"a,b\n1,2\n3,\xff\n", 10),
            (["hill", "IN"], b"a,b\n1,2\n3,\xff\n", 10),
            (["returns", "IN", "--output", "r.csv"], b"date,a\n2020-01-01,\xff\n", 18),
            (["bench", "--config", "IN", "--out", "b"], b'{"model": "\xff"}', 11),
            (["cluster", "IN", "--auto-g"], b"\xef\xbb\xbfa,b\n1,\xff\n", 9),
        ],
        ids=["cluster", "hill", "returns", "bench", "after-bom"],
    )
    def test_undecodable_byte_is_parse_exit(self, tmp_path, capsys, argv, blob, offset):
        path = tmp_path / "bad.in"
        path.write_bytes(blob)
        assert main([str(path) if a == "IN" else a for a in argv]) == 2
        assert capsys.readouterr().err == (
            f"error: {path}: byte {offset} (0xff) is not valid UTF-8\n"
        )

    @pytest.mark.parametrize(
        "argv, text, row",
        [
            (["hill", "IN", "--k", "1"], "a,b\n1,2\r3,4\n", 2),
            (["hill", "IN", "--k", "1"], "a,b\r1,2\n3,4\n", 1),
            (["returns", "IN", "--output", "r.csv"], "date,a\n2020-01-01,1\n2020-01-02,2\r3\n", 3),
        ],
        ids=["data-body", "data-header", "price-body"],
    )
    def test_malformed_csv_is_parse_exit(self, tmp_path, capsys, argv, text, row):
        path = tmp_path / "bad.csv"
        path.write_bytes(text.encode("utf-8"))
        assert main([str(path) if a == "IN" else a for a in argv]) == 2
        assert capsys.readouterr().err.startswith(f"error: {path}: row {row} is not valid CSV (")
        assert not (tmp_path / "r.csv").exists()

    def test_digit_separator_is_parse_exit(self, tmp_path, capsys):
        inp = write(tmp_path, "us.csv", "a,b\n1,2\n3,1_000\n")
        assert main(["hill", inp, "--k", "1"]) == 2
        assert capsys.readouterr().err == (
            f"error: {inp}: row 3, column 'b': cannot parse '1_000' as a number\n"
        )

    def test_bad_params_is_validation_exit(self, tmp_path):
        inp = write(tmp_path, "hand.csv", HAND_CSV)
        assert main(["cluster", inp, "--auto-g", "--k", "5", "--k-star", "4"]) == 3

    def test_known_g_above_p_is_validation_exit(self, tmp_path):
        inp = write(tmp_path, "hand.csv", HAND_CSV)
        rc = main(
            ["cluster", inp, "--known-g", "9", "--k", "2", "--k-star", "4",
             "--beta", "0.5"]
        )
        assert rc == 3

    def test_exhausted_extraction_is_runtime_exit(self, tmp_path, capsys):
        # identical columns come out in one extraction, so g=2 is unreachable
        inp = write(tmp_path, "same.csv", "a,b\n" + "\n".join(
            f"{v},{v}" for v in range(1, 9)
        ) + "\n")
        rc = main(
            ["cluster", inp, "--known-g", "2", "--k", "2", "--k-star", "4",
             "--beta", "0.5"]
        )
        assert rc == 4
        assert "error:" in capsys.readouterr().err

    def test_usage_error_is_argparse_exit(self):
        with pytest.raises(SystemExit) as exc:
            main(["cluster", "x.csv"])  # neither --known-g nor --auto-g
        assert exc.value.code == 2


class TestOutputDirEnv:
    def test_relative_outputs_join_env_dir(self, tmp_path, monkeypatch):
        outdir = tmp_path / "outs"
        outdir.mkdir()
        monkeypatch.setenv("TAILCLUSTER_OUTPUT_DIR", str(outdir))
        main(
            ["simulate", "--model", "A", "--g", "1", "--q", "2",
             "--delta", "0.5", "--n", "30", "--seed", "2", "--out", "s"]
        )
        assert (outdir / "s.csv").exists()
        assert (outdir / "s.json").exists()
        assert not (tmp_path / "s.csv").exists()

    def test_absolute_output_ignores_env_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("TAILCLUSTER_OUTPUT_DIR", str(tmp_path / "outs"))
        target = tmp_path / "direct.csv"
        inp = write(tmp_path, "prices.csv", PRICE_CSV)
        main(["returns", inp, "--output", str(target)])
        assert target.exists()


class TestSchemaVersion:
    def test_every_json_output_carries_the_schema_version(self, tmp_path):
        inp = write(tmp_path, "hand.csv", HAND_CSV)
        cfg = write(tmp_path, "cfg.json", json.dumps(TestBench.CONFIG))
        runs = {
            "c.json": ["cluster", inp, "--auto-g", "--k", "2", "--k-star", "4",
                       "--beta", "0.5", "-o", "c.json"],
            "h.json": ["hill", inp, "--k", "2", "-o", "h.json"],
            "s.json": ["simulate", "--model", "A", "--g", "1", "--q", "2",
                       "--delta", "0.5", "--n", "30", "--seed", "2", "--out", "s"],
            "b.json": ["bench", "--config", cfg, "--reps", "1", "--out", "b"],
        }
        for name, argv in runs.items():
            assert main(argv) == 0, name
            doc = json.loads((tmp_path / name).read_text())
            assert doc["schema_version"] == SCHEMA_VERSION, name


class TestReadme:
    def test_cli_block_parses(self):
        # a flag removed from the parser must not linger in the docs
        text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        block = text.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
        lines = [line for line in block.splitlines() if line.startswith("tailcluster ")]
        assert len(lines) >= 6
        parser = cli.build_parser()
        for line in lines:
            try:
                parser.parse_args(shlex.split(line)[1:])
            except SystemExit:
                pytest.fail(f"README line does not parse: {line}")


class TestVersion:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "tailcluster" in capsys.readouterr().out
