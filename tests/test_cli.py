import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import jsonschema
import pytest

from nterm.cli import (
    COMMANDS,
    EXIT_BAD_SPEC,
    EXIT_DOMAIN,
    EXIT_IO,
    EXIT_OK,
    main,
    parse_argv,
    parse_n_spec,
    render,
)

SCHEMA = json.loads(
    (Path(__file__).resolve().parent.parent / "schemas" / "output.json")
    .read_text())


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, argv):
    code, out, err = run_cli(capsys, argv + ["--format", "json"])
    assert code == EXIT_OK, err
    doc = json.loads(out)
    jsonschema.validate(doc, SCHEMA)
    return doc


class TestNSpec:
    def test_single(self):
        assert parse_n_spec("17") == [17]
        assert parse_n_spec("2^10") == [1024]

    def test_dyadic_range(self):
        assert parse_n_spec("2^4..2^6:dyadic") == [16, 32, 64]
        assert parse_n_spec("3..50:dyadic") == [3, 6, 12, 24, 48]

    @pytest.mark.parametrize("bad", ["", "x", "4..2:dyadic", "1..8", "2^^3",
                                     "0..2^4:dyadic"])
    def test_errors(self, bad):
        with pytest.raises(ValueError):
            parse_n_spec(bad)


class TestParams:
    """The JSON ``params`` object: "format" plus every flag of the command
    that has a value, with ``p`` as a number."""

    @pytest.mark.parametrize("argv, params", [
        (["bounds", "--weights", "const", "--p", "1", "--n", "1",
          "--m-max", "1024", "--format", "json"],
         {"format": "json", "m_max": 1024, "n": "1", "p": 1.0,
          "weights": "const"}),
        (["bounds", "--weights", "logpow:beta=1", "--p", "inf",
          "--n", "2^2..2^8:dyadic"],
         {"format": "json", "n": "2^2..2^8:dyadic", "p": "inf",
          "weights": "logpow:beta=1"}),
        (["exact", "--sequence", "x.txt", "--n", "3", "--format", "csv"],
         {"format": "json", "n": "3", "sequence": "x.txt"}),
        (["extremal", "--weights", "const", "--p", "2", "--m", "4"],
         {"format": "json", "m": 4, "p": 2.0, "weights": "const"}),
        (["oracle", "--weights", "powlog:alpha=1,beta=0", "--p", "0.5",
          "--n", "2", "--seed", "7", "--iters", "100"],
         {"format": "json", "iters": 100, "max_support": 64, "n": "2",
          "p": 0.5, "seed": 7, "weights": "powlog:alpha=1,beta=0"}),
        (["certify", "--weights", "const", "--p", "1.5", "--n", "4",
          "--seed", "3", "--output", "out.json"],
         {"format": "json", "iters": 20000, "max_support": 64, "n": "4",
          "p": 1.5, "seed": 3, "weights": "const"}),
        (["ratefit", "--weights", "const", "--p", "1",
          "--n", "2^6..2^16:dyadic", "--fix-log", "none",
          "--model", "poly-only"],
         {"fix_log": "none", "format": "json", "model": "poly-only",
          "n": "2^6..2^16:dyadic", "p": 1.0, "weights": "const"}),
    ])
    def test_params_encoding(self, argv, params):
        # the last --format wins, so every argv renders as JSON
        doc = json.loads(render(parse_argv(argv + ["--format", "json"]), {}))
        assert doc["params"] == params


class TestCommandTable:
    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_help_for_every_command(self, capsys, command):
        code, out, _ = run_cli(capsys, [command, "--help"])
        assert code == EXIT_OK
        assert out.startswith(f"usage: nterm {command}")

    @pytest.mark.parametrize("argv", [
        ["bounds", "--weights", "const", "--p", "1", "--n", "1",
         "--seed", "1"],
        ["ratefit", "--weights", "const", "--p", "1",
         "--n", "2^6..2^14:dyadic", "--iters", "5"],
    ])
    def test_flag_of_another_command_is_rejected(self, capsys, argv):
        code, _, _ = run_cli(capsys, argv)
        assert code == EXIT_BAD_SPEC


class TestBounds:
    def test_json_example(self, capsys):
        doc = run_json(capsys, ["bounds", "--weights", "const", "--p", "1",
                                "--n", "1", "--m-max", "1024"])
        row = doc["rows"][0]
        assert row["lower_sq"] == 0.25
        assert row["upper_sq"] == 1.0
        assert row["status"] == "attained"

    def test_csv_header_stable(self, capsys):
        code, out, _ = run_cli(capsys, [
            "bounds", "--weights", "const", "--p", "1", "--n", "1",
            "--format", "csv"])
        assert code == EXIT_OK
        assert out.splitlines()[0] == \
            "n,lower_sq,upper_sq,status,argmax_m,m_scanned"

    def test_divergent_serializes_inf(self, capsys):
        doc = run_json(capsys, ["bounds", "--weights", "const", "--p", "3",
                                "--n", "1"])
        assert doc["rows"][0]["lower_sq"] == "inf"
        assert doc["rows"][0]["status"] == "divergent"

    def test_inf_p_rows(self, capsys):
        doc = run_json(capsys, ["bounds", "--weights",
                                "powlog:alpha=1,beta=0", "--p", "inf",
                                "--n", "2^1..2^4:dyadic"])
        assert doc["rows"][0]["status"] == "converged"
        assert {"n", "value_sq", "truncation_bound", "status",
                "terms_summed"} == set(doc["rows"][0])

    def test_inf_p_near_boundary_is_quiet(self, capsys):
        # 2 alpha = 1 with beta just above 1/2: the tail past the head is
        # 3.47e6 and must not be lost with a warning on stderr
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, [
                "bounds", "--weights", "powlog:alpha=0.5,beta=0.5000001",
                "--p", "inf", "--n", "16", "--format", "json"])
        assert code == EXIT_OK and err == ""
        row = json.loads(out)["rows"][0]
        assert row["status"] == "converged"
        assert row["value_sq"] == pytest.approx(3465734.93276236, rel=1e-12)


def test_import_leaves_scipy_unloaded():
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + [x for x in [env.get("PYTHONPATH")] if x])
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, nterm.cli; print(sorted(m for m in sys.modules "
         "if m == 'scipy' or m.startswith('scipy.')))"],
        env=env, capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "[]"


class TestExact:
    def test_three_four_five(self, capsys, tmp_path):
        path = tmp_path / "seq.txt"
        path.write_text("3\n-4\n")
        doc = run_json(capsys, ["exact", "--sequence", str(path), "--n", "0"])
        assert doc["rows"][0]["sigma"] == 5.0

    def test_sigma_sq_is_the_exact_sum(self, capsys, tmp_path):
        # sqrt(10) squared rounds to 10.000000000000002
        path = tmp_path / "seq.txt"
        path.write_text("1\n3\n")
        doc = run_json(capsys, ["exact", "--sequence", str(path), "--n", "0"])
        assert doc["rows"][0]["sigma_sq"] == 10.0
        assert doc["rows"][0]["sigma"] == math.sqrt(10.0)

    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, ["exact", "--sequence", "/missing",
                                        "--n", "0"])
        assert code == EXIT_IO
        assert err.startswith("nterm: error=io")


class TestExtremal:
    def test_csv_row(self, capsys):
        code, out, _ = run_cli(capsys, [
            "extremal", "--weights", "const", "--p", "2", "--m", "4",
            "--format", "csv"])
        assert code == EXIT_OK
        assert out == "0.5,0.5,0.5,0.5\n"

    def test_json(self, capsys):
        doc = run_json(capsys, ["extremal", "--weights", "const", "--p", "1",
                                "--m", "3"])
        assert doc["entries"] == pytest.approx([1 / 3] * 3)


class TestOracleCommand:
    def test_rows_and_witnesses(self, capsys):
        doc = run_json(capsys, ["oracle", "--weights", "const", "--p", "1",
                                "--n", "1", "--m-max", "64",
                                "--iters", "2000", "--seed", "1"])
        engines = {r["engine"]: r["value_sq"] for r in doc["rows"]}
        assert engines["structure"] == pytest.approx(0.25, abs=1e-9)
        assert engines["random"] <= engines["structure"] + 1e-9
        assert "structure:1" in doc["witnesses"]

    def test_inf_p_runs_random_only(self, capsys):
        doc = run_json(capsys, ["oracle", "--weights",
                                "powlog:alpha=1,beta=0", "--p", "inf",
                                "--n", "1", "--iters", "500", "--seed", "1"])
        assert [r["engine"] for r in doc["rows"]] == ["random"]

    def test_n_at_max_support_has_empty_random_witness(self, capsys):
        doc = run_json(capsys, ["oracle", "--weights", "const", "--p", "1",
                                "--n", "2^6"])
        assert doc["witnesses"]["random:64"] == []
        random_rows = [r for r in doc["rows"] if r["engine"] == "random"]
        assert [r["value_sq"] for r in random_rows] == [0.0]

    @pytest.mark.parametrize("flag", [["--grid-points", "512"],
                                      ["--refine-tol", "1e-12"]])
    def test_search_tuning_flags_are_gone(self, capsys, flag):
        code, _, _ = run_cli(capsys, ["oracle", "--weights", "const",
                                      "--p", "1", "--n", "1"] + flag)
        assert code == EXIT_BAD_SPEC


class TestCertifyCommand:
    def test_passes_and_exit_zero(self, capsys):
        doc = run_json(capsys, ["certify", "--weights",
                                "powlog:alpha=1,beta=0", "--p", "2",
                                "--n", "8", "--seed", "42",
                                "--iters", "2000"])
        assert doc["reports"][0]["passed"] is True

    def test_byte_identical_reruns(self, capsys):
        argv = ["certify", "--weights", "const", "--p", "1", "--n", "4",
                "--seed", "42", "--iters", "3000", "--format", "json"]
        _, out1, _ = run_cli(capsys, argv)
        _, out2, _ = run_cli(capsys, argv)
        assert out1 == out2


class TestDeterminism:
    @pytest.mark.parametrize("argv", [
        ["bounds", "--weights", "logpow:beta=1", "--p", "1",
         "--n", "2^1..2^6:dyadic", "--format", "csv"],
        ["oracle", "--weights", "const", "--p", "1", "--n", "2",
         "--iters", "2000", "--seed", "5", "--format", "json"],
        ["ratefit", "--weights", "const", "--p", "1",
         "--n", "2^6..2^14:dyadic", "--format", "json"],
    ])
    def test_identical_runs_identical_bytes(self, capsys, argv):
        _, out1, _ = run_cli(capsys, argv)
        _, out2, _ = run_cli(capsys, argv)
        assert out1 == out2


class TestRatefitCommand:
    def test_constant_weights_rate(self, capsys):
        doc = run_json(capsys, ["ratefit", "--weights", "const", "--p", "1",
                                "--n", "2^6..2^14:dyadic"])
        assert doc["fit"]["poly_exponent"] == pytest.approx(0.5, abs=0.05)
        assert doc["prediction"]["valid"] is True
        assert doc["envelope"]["ratio"] < 4

    def test_fix_log_numeric(self, capsys):
        doc = run_json(capsys, ["ratefit", "--weights", "logpow:beta=1",
                                "--p", "1", "--n", "2^6..2^14:dyadic",
                                "--fix-log", "1.0"])
        assert doc["fit"]["log_exponent"] == 1.0

    def test_invalid_prediction_keeps_envelope_null(self, capsys):
        # p = 2 is the boundary that "0 < p < 2" excludes for const weights
        doc = run_json(capsys, ["ratefit", "--weights", "const", "--p", "2",
                                "--n", "2^6..2^14:dyadic"])
        assert doc["prediction"]["valid"] is False
        assert doc["envelope"] is None
        # just inside it the Stechkin rate n**(1/2 - 1/p) holds
        doc = run_json(capsys, ["ratefit", "--weights", "const", "--p", "1.9",
                                "--n", "2^6..2^14:dyadic"])
        assert doc["prediction"]["valid"] is True
        assert doc["envelope"] is not None


class TestErrorPaths:
    def test_unknown_weight_spec(self, capsys):
        code, _, err = run_cli(capsys, ["bounds", "--weights", "nope",
                                        "--p", "1", "--n", "1"])
        assert code == EXIT_BAD_SPEC
        assert err.startswith("nterm: error=weight-spec")

    def test_invalid_weight_file(self, capsys, tmp_path):
        path = tmp_path / "w.txt"
        path.write_text("1\n0.5\n")
        code, _, err = run_cli(capsys, ["bounds", "--weights",
                                        f"file:{path}", "--p", "1",
                                        "--n", "1"])
        assert code == EXIT_BAD_SPEC

    def test_bad_p(self, capsys):
        code, _, err = run_cli(capsys, ["bounds", "--weights", "const",
                                        "--p", "0", "--n", "1"])
        assert code == EXIT_DOMAIN
        assert err.startswith("nterm: error=domain")

    def test_bad_n_range(self, capsys):
        code, _, err = run_cli(capsys, ["bounds", "--weights", "const",
                                        "--p", "1", "--n", "8..4:dyadic"])
        assert code == EXIT_DOMAIN

    @pytest.mark.parametrize("command, extra", [
        ("bounds", ["--weights", "const", "--p", "1"]),
        ("exact", ["--sequence", "{tmp}/seq.txt"]),
        ("ratefit", ["--weights", "const", "--p", "1"]),
    ])
    def test_dyadic_range_from_zero(self, capsys, tmp_path, command, extra):
        # doubling from 0 never reaches the upper end
        (tmp_path / "seq.txt").write_text("3\n-4\n")
        extra = [a.format(tmp=tmp_path) for a in extra]
        code, _, err = run_cli(capsys, [command, *extra,
                                        "--n", "0..2^4:dyadic"])
        assert code == EXIT_DOMAIN
        assert err.startswith("nterm: error=domain")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("spec", [
        "powlog:alpha=nan,beta=0", "powlog:alpha=1e308,beta=0",
        "logpow:beta=inf", "file:{tmp}/w.txt"])
    def test_non_finite_weights(self, capsys, tmp_path, spec):
        (tmp_path / "w.txt").write_text("1\n2\nnan\n4\n")
        code, _, err = run_cli(capsys, [
            "bounds", "--weights", spec.format(tmp=tmp_path), "--p", "1",
            "--n", "1"])
        assert code == EXIT_BAD_SPEC
        assert err.startswith("nterm: error=weight-spec")
        assert err.count("\n") == 1

    def test_non_finite_sequence_entry(self, capsys, tmp_path):
        path = tmp_path / "seq.txt"
        path.write_text("1\nnan\n3\n")
        code, _, err = run_cli(capsys, ["exact", "--sequence", str(path),
                                        "--n", "0"])
        assert code == EXIT_DOMAIN
        assert err.startswith("nterm: error=domain")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("value", ["nan", "inf", "x"])
    def test_fix_log_must_be_finite(self, capsys, value):
        code, _, err = run_cli(capsys, [
            "ratefit", "--weights", "const", "--p", "1",
            "--n", "2^6..2^14:dyadic", "--fix-log", value])
        assert code == EXIT_DOMAIN
        assert err.startswith("nterm: error=domain")
        assert err.count("\n") == 1

    def test_index_too_large_to_allocate(self, capsys):
        # m_max = 64 n = 2^46 float64 entries fit in no 64-bit address space
        code, out, err = run_cli(capsys, ["bounds", "--weights", "const",
                                          "--p", "1", "--n", "2^40"])
        assert code == EXIT_DOMAIN and out == ""
        assert err.startswith("nterm: error=domain")
        assert err.count("\n") == 1

    def test_weights_overflowing_to_inf(self, capsys):
        # m_max = 2^21, and j**50 overflows to inf near j = 1.4e6
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, [
                "bounds", "--weights", "powlog:alpha=50,beta=0", "--p", "1",
                "--n", "2^15"])
        assert code == EXIT_DOMAIN and out == ""
        assert err.startswith("nterm: error=domain")
        assert "w_1462495 is not finite" in err
        assert err.count("\n") == 1

    def test_weights_below_overflow(self, capsys):
        # m_max = 2^16 keeps every j**50 finite
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, [
                "bounds", "--weights", "powlog:alpha=50,beta=0", "--p", "1",
                "--n", "2^10"])
        assert code == EXIT_OK and err == ""
        assert "attained" in out

    def test_unknown_flag(self, capsys):
        code, _, _ = run_cli(capsys, ["bounds", "--wat", "1"])
        assert code == EXIT_BAD_SPEC

    def test_output_file(self, capsys, tmp_path):
        out_path = tmp_path / "rows.csv"
        argv = ["bounds", "--weights", "const", "--p", "1", "--n", "1",
                "--format", "csv", "--output", str(out_path)]
        code, out, _ = run_cli(capsys, argv)
        assert code == EXIT_OK and out == ""
        first = out_path.read_bytes()
        run_cli(capsys, argv)
        assert out_path.read_bytes() == first


class TestWeightFileThroughCli:
    def test_tabulated_bounds(self, capsys, tmp_path):
        path = tmp_path / "w.txt"
        path.write_text("".join(f"{float(j)}\n" for j in range(1, 2001)))
        doc = run_json(capsys, ["bounds", "--weights", f"file:{path}",
                                "--p", "1", "--n", "1", "--m-max", "2000"])
        assert doc["rows"][0]["status"] == "attained"

    def test_tabulated_ratefit_shorter_than_scan(self, capsys, tmp_path):
        # the default scan for n = 2^11 reaches 131072, past the 4096 weights
        path = tmp_path / "w.txt"
        path.write_text("".join(f"{float(j)}\n" for j in range(1, 4097)))
        argv = ["--weights", f"file:{path}", "--p", "1.5",
                "--n", "2^4..2^11:dyadic"]
        bounds = run_json(capsys, ["bounds"] + argv)
        fit = run_json(capsys, ["ratefit"] + argv)
        assert [r["m_scanned"] for r in bounds["rows"]] == (
            [1024, 2048] + [4096] * 6)
        assert fit["samples"] == [
            {"n": r["n"], "sigma": math.sqrt(r["upper_sq"])}
            for r in bounds["rows"]]
