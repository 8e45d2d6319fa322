"""End-to-end tests for the command-line interface.

Every test drives cli.main(argv) in-process and inspects the files or
stdout it produces, so exit codes and output layout are covered exactly
as a shell user would see them.
"""

import json
import math
import sys

import numpy as np
import pytest

from tailcluster import cluster_unknown_g, ClusterParams, generate, SimModelSpec
from tailcluster import cli
from tailcluster.bench import CSV_COLUMNS, parse_report
from tailcluster.cli import main
from tailcluster.core import SCHEMA_VERSION
from tailcluster.ingest import read_data_csv, write_data_csv

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
        # tailcluster.hill is the re-exported function; the module is in sys.modules
        hill_module = sys.modules["tailcluster.hill"]
        calls = []
        real = hill_module.hill

        def counting(column, k):
            calls.append(k)
            return real(column, k)

        monkeypatch.setattr(hill_module, "hill", counting)
        data, _ = generate(SimModelSpec(model="A", g=2, q=3, delta=0.5, n=300, seed=2))
        inp = tmp_path / "d.csv"
        write_data_csv(data, inp)
        assert main(["cluster", str(inp), *mode, "--k-hill", "6", "-o", "out.json"]) == 0
        assert calls == [6] * data.p

    def test_prices_path(self, tmp_path):
        inp = write(tmp_path, "prices.csv", PRICE_CSV)
        rc = main(
            ["cluster", inp, "--prices", "--known-g", "1", "--k", "1",
             "--k-star", "1", "--beta", "0.5", "--output", "out.json"]
        )
        # only 2 return rows and k == k_star: validation must reject it
        assert rc == 3


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
        def no_sweep(*args, **kwargs):
            raise AssertionError("run_sweep called")

        monkeypatch.setattr(cli, "run_sweep", no_sweep)
        docs = [dict(self.CONFIG, model="B"), dict(self.CONFIG, model="A")]
        cfg = write(tmp_path, "cfg.json", json.dumps(docs))
        assert main(["bench", "--config", cfg, "--out", "b"]) == 3
        assert capsys.readouterr().err == (
            "error: reports differ in template fields; cannot merge\n"
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

    def test_invalid_json_rejected(self, tmp_path):
        cfg = write(tmp_path, "cfg.json", "{not json")
        assert main(["bench", "--config", cfg, "--out", "b"]) == 2

    def test_zero_workers_is_validation_exit(self, tmp_path, capsys):
        cfg = write(tmp_path, "cfg.json", json.dumps(self.CONFIG))
        assert main(["bench", "--config", cfg, "--workers", "0", "--out", "b"]) == 3
        assert "workers" in capsys.readouterr().err


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

    def test_infinite_price_is_parse_exit(self, tmp_path, capsys):
        inp = write(tmp_path, "p.csv", (
            "date,a,b\n2020-01-01,1.0,2.0\n2020-01-02,1.1,infinity\n"
            "2020-01-03,1.2,2.2\n2020-01-04,1.3,2.3\n"
        ))
        assert main(["returns", inp, "--output", "ret.csv"]) == 2
        assert "row 3, column 'b': non-finite price 'infinity'" in capsys.readouterr().err
        assert not (tmp_path / "ret.csv").exists()


class TestExitCodes:
    def test_missing_file_is_parse_exit(self):
        assert main(["cluster", "definitely-missing.csv", "--auto-g"]) == 2

    def test_bad_token_is_parse_exit(self, tmp_path):
        inp = write(tmp_path, "bad.csv", "a,b\n1,2\n3,zebra\n")
        assert main(["cluster", inp, "--auto-g"]) == 2

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


class TestVersion:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "tailcluster" in capsys.readouterr().out
