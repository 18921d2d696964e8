import json
import math
import os
import re
import warnings
from pathlib import Path

import jsonschema
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from nterm.cli import (
    _FLAGS,
    COMMANDS,
    EXIT_BAD_SPEC,
    EXIT_CERTIFY_FAIL,
    EXIT_DOMAIN,
    EXIT_IO,
    EXIT_OK,
    main,
    parse_argv,
    parse_n_spec,
    render,
)

from conftest import fresh_python

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


# oracle and certify on w_j = j**0.75, j = 1..300, at p = 1.5 over
# 2^0..2^8:dyadic with --iters 500 --seed 3, recorded at commit 0167457,
# when each n built its own table: n -> (structure_sq, random_sq,
# scan_lower_sq, scan_upper_sq, bound_status).  structure_sq re-recorded
# when the flat block of length m + 1 became k = m + 1 entries W_k**-1 read
# from the table, not b = u_c**(1/p) / W_m: 5 of 9 values moved, by at most
# 3.9e-16 relative.  The n = 256 bound row re-recorded when the bound scan
# of a file stopped guessing a status from its trailing slope and the
# oracles' scan moved to the bound scan's range, m in [n, 300]: it was
# "divergent" over [256, 299], and its scan_lower_sq now equals structure_sq
TABLE300 = {
    1: (0.2137530363648663, 0.20384956620192218,
        0.2137530363648663, 1.0, "attained"),
    2: (0.08040688586094774, 0.06581380442182502,
        0.08040688586094775, 0.2137530363648663, "attained"),
    4: (0.027359797325300913, 0.021887894343231393,
        0.02735979732530091, 0.04404080679971459, "attained"),
    8: (0.008579610790643552, 0.0063282416670042575,
        0.008579610790643552, 0.010817005112011033, "attained"),
    16: (0.0025450367255237943, 0.0018895524270142918,
         0.0025450367255237943, 0.0028515278329265866, "attained"),
    32: (0.000734176575925914, 0.0004849218001622707,
         0.0007341765759259139, 0.0007775074015703581, "attained"),
    64: (0.00020895762881915412, 0.0,
         0.0002089576288191541, 0.0002150244558002829, "attained"),
    128: (5.9055136071871994e-05, 0.0,
          5.9055136071872e-05, 5.990628185491374e-05, "attained"),
    256: (1.1464971394774705e-05, 0.0,
          1.1464971394774705e-05, 1.172553892647413e-05,
          "truncated-unknown"),
}


def _write_exact_inputs(directory: Path) -> None:
    """The sequence files behind ``EXACT_RECORDED``.

    small.txt mixes zeros, a blank line, subnormals and a dynamic range past
    2**511, so some tails have subnormal scaled squares; grid.txt holds 2000
    entries from correctly rounded divisions, spread over 2**-80..2**80.
    """
    (directory / "small.txt").write_text(
        "3\n-4\n0\n\n  1e-310\n2.5e-200\n-7.27e-158\n1\n1\n1\n1e150\n"
        "-1e-300\n0.1\n0.2\n0.30000000000000004\n12345.678\n-6.02e23\n")
    grid = [(k * 7919 % 10007 - 5003) / 4999 * 2.0 ** ((k * 37) % 161 - 80)
            for k in range(1, 2001)]
    (directory / "grid.txt").write_text("".join(f"{v!r}\n" for v in grid))


# "file|n|format" -> the exact artifact, recorded at commit 5a61519, before
# the tail sums of an n grid shared one sort
EXACT_RECORDED = json.loads(
    (Path(__file__).resolve().parent / "data" / "exact_recorded.json")
    .read_text())


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
        (["oracle", "--weights", "powlog:alpha=1,beta=0", "--p", "0.5",
          "--n", "2", "--seed", "7", "--iters", "100"],
         {"format": "json", "iters": 100, "max_support": 64, "n": "2",
          "p": 0.5, "seed": 7, "weights": "powlog:alpha=1,beta=0"}),
        (["certify", "--weights", "const", "--p", "1.5", "--n", "4",
          "--seed", "3", "--output", "out.json"],
         {"format": "json", "iters": 20000, "max_support": 64, "n": "4",
          "p": 1.5, "seed": 3, "weights": "const"}),
        (["ratefit", "--weights", "const", "--p", "1",
          "--n", "2^6..2^16:dyadic", "--fix-log", "0"],
         {"fix_log": "0", "format": "json",
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

    @pytest.mark.parametrize("beta, status", [
        ("0", "divergent"), ("0.2", "divergent"), ("0.25", "divergent"),
        ("0.3", "truncated-unknown")])
    def test_hoelder_boundary_above_2(self, capsys, beta, status):
        # alpha = 1/2 - 1/p at p = 4: the tail diverges for 4 beta <= 1
        doc = run_json(capsys, ["bounds", "--weights",
                                f"powlog:alpha=0.25,beta={beta}", "--p", "4",
                                "--n", "1"])
        assert doc["rows"][0]["status"] == status

    def test_inf_p_rows(self, capsys):
        doc = run_json(capsys, ["bounds", "--weights",
                                "powlog:alpha=1,beta=0", "--p", "inf",
                                "--n", "2^1..2^4:dyadic"])
        assert doc["rows"][0]["status"] == "converged"
        assert {"n", "value_sq", "truncation_bound", "status",
                "terms_summed"} == set(doc["rows"][0])

    def test_inf_p_ignores_m_max(self, capsys):
        # a tail sum has no scan to cap, so --m-max below n + 1 is no error
        argv = ["bounds", "--weights", "powlog:alpha=1,beta=0", "--p", "inf",
                "--n", "16"]
        assert (run_json(capsys, argv + ["--m-max", "3"])["rows"]
                == run_json(capsys, argv)["rows"])

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
        assert row["value_sq"] == pytest.approx(3465734.93276236, rel=1e-12)
        # the bound, 7.8e-8, misses the 1e-12 target, and the row says so
        assert row["truncation_bound"] > 1e-12
        assert row["status"] == "truncated-unknown"


def test_import_leaves_scipy_unloaded():
    out = fresh_python(
        "-c", "import sys, nterm.cli; print(sorted(m for m in sys.modules "
        "if m == 'scipy' or m.startswith('scipy.')))")
    assert out.strip() == b"[]"


def test_import_leaves_fractions_and_decimal_unloaded():
    # the exponent edges are decided on integer ratios, without either
    # module: importing fractions costs about 4 ms
    out = fresh_python(
        "-c", "import sys, nterm.cli; print(sorted(m for m in sys.modules "
        "if m in ('fractions', 'decimal', '_decimal', '_pydecimal')))")
    assert out.strip() == b"[]"


def test_exact_sums_leave_numpy_ma_unloaded():
    # the first np.unique call imports numpy.ma, about 10 ms per process
    out = fresh_python(
        "-c", "import sys; from nterm.sequences import scaled_tail_sqs; "
        "scaled_tail_sqs([3.0, 1.0, 2.0 ** -600, 0.0], [0, 1, 2]); "
        "print('numpy.ma' in sys.modules)")
    assert out.strip() == b"False"


# the OS threads of the process and OPENBLAS_NUM_THREADS after the import
_THREADS_AFTER_IMPORT = (
    "import json, os, nterm.cli; print(json.dumps(["
    "len(os.listdir('/proc/self/task')) if os.path.isdir('/proc/self/task') "
    "else None, os.environ.get('OPENBLAS_NUM_THREADS')]))")
# OpenBLAS starts a worker only where it finds a second CPU
_COUNTS_THREADS = (os.path.isdir("/proc/self/task")
                   and (os.cpu_count() or 1) >= 2)


class TestBlasThreads:
    """The CLI loads numpy with one OpenBLAS thread unless told otherwise."""

    def test_cli_import_starts_no_blas_worker(self):
        threads, var = json.loads(fresh_python(
            "-c", _THREADS_AFTER_IMPORT, OPENBLAS_NUM_THREADS=None))
        assert var == "1"
        if _COUNTS_THREADS:
            assert threads == 1

    def test_a_set_value_wins(self):
        threads, var = json.loads(fresh_python(
            "-c", _THREADS_AFTER_IMPORT, OPENBLAS_NUM_THREADS="2"))
        assert var == "2"
        if _COUNTS_THREADS:
            assert threads == 2

    def test_ratefit_bytes_do_not_depend_on_blas_threads(self):
        # ratefit's least-squares fit is the one LAPACK call of the CLI
        argv = ["-m", "nterm.cli", "ratefit", "--weights",
                "powlog:alpha=1,beta=0", "--p", "1.5",
                "--n", "2^4..2^12:dyadic", "--format", "json"]
        one = fresh_python(*argv, OPENBLAS_NUM_THREADS="1")
        two = fresh_python(*argv, OPENBLAS_NUM_THREADS="2")
        assert json.loads(one)["fit"]["poly_exponent"] > 0
        assert one == two


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

    def test_bad_line_is_named(self, capsys, tmp_path):
        path = tmp_path / "seq.txt"
        path.write_text("1\n\n2\nhello\n3\n")
        code, out, err = run_cli(capsys, ["exact", "--sequence", str(path),
                                          "--n", "0"])
        assert code == EXIT_DOMAIN
        assert out == ""
        assert err.startswith("nterm: error=domain")
        assert f"{path}:4: not a number: 'hello'" in err
        assert err.count("\n") == 1

    def test_line_breaks_as_splitlines_cuts_them(self, capsys, tmp_path):
        path = tmp_path / "seq.txt"
        path.write_bytes(b"1\x0c2\n 3 \r\n\r\n\r4\x0b\n")
        doc = run_json(capsys, ["exact", "--sequence", str(path), "--n", "0"])
        assert doc["rows"][0]["sigma_sq"] == 30.0
        assert doc["rows"][0]["support_len"] == 4

    @pytest.mark.parametrize("data, sigma_sq, support_len", [
        # U+2028, NEL and a form feed end lines inside a sequence file too
        ("1\u20282\x852\x0c4\n".encode(), 25.0, 4),
        # lines of only whitespace, inside and at the end, are skipped
        (b"\n 1\n\t\n2\n \t\n\x0b\n   ", 5.0, 2),
    ])
    def test_lines_as_a_weight_file_cuts_them(self, capsys, tmp_path, data,
                                              sigma_sq, support_len):
        path = tmp_path / "seq.txt"
        path.write_bytes(data)
        doc = run_json(capsys, ["exact", "--sequence", str(path), "--n", "0"])
        assert doc["rows"][0]["sigma_sq"] == sigma_sq
        assert doc["rows"][0]["support_len"] == support_len

    @pytest.mark.parametrize("data, message", [
        # the line is counted as str.splitlines counts it
        (b"1\x0c\n\nx\n", "{path}:4: not a number: 'x'"),
        ("1\n\u2028\n \nx\n".encode(), "{path}:5: not a number: 'x'"),
        (b"1\n" * 5000 + b"x\n", "{path}:5001: not a number: 'x'"),
    ])
    def test_bad_line_after_blank_lines(self, capsys, tmp_path, data,
                                        message):
        path = tmp_path / "seq.txt"
        path.write_bytes(data)
        code, out, err = run_cli(capsys, ["exact", "--sequence", str(path),
                                          "--n", "0"])
        assert (code, out) == (EXIT_DOMAIN, "")
        assert err == (f"nterm: error=domain "
                       f"detail={message.format(path=path)!r}\n")

    def test_sigma_sq_past_float64_range(self, capsys, tmp_path):
        # sigma_0**2 = 1e600 + 4 has no float64
        path = tmp_path / "seq.txt"
        path.write_text("1e300\n2\n")
        code, out, err = run_cli(capsys, ["exact", "--sequence", str(path),
                                          "--n", "0"])
        assert (code, out) == (EXIT_DOMAIN, "")
        assert err.startswith("nterm: error=domain")
        assert err.count("\n") == 1

    def test_undecodable_file(self, capsys, tmp_path):
        path = tmp_path / "seq.txt"
        path.write_bytes(b"1\n\xff\n")
        code, out, err = run_cli(capsys, ["exact", "--sequence", str(path),
                                          "--n", "0"])
        assert (code, out) == (EXIT_DOMAIN, "")
        assert err.startswith("nterm: error=domain")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("key", sorted(EXACT_RECORDED))
    def test_recorded_bytes(self, capsys, tmp_path, monkeypatch, key):
        name, n, fmt = key.split("|")
        _write_exact_inputs(tmp_path)
        monkeypatch.chdir(tmp_path)
        code, out, err = run_cli(capsys, ["exact", "--sequence", name,
                                          "--n", n, "--format", fmt])
        assert (code, err) == (EXIT_OK, "")
        assert out == EXACT_RECORDED[key]


class TestOracleCommand:
    def test_rows_and_witnesses(self, capsys):
        doc = run_json(capsys, ["oracle", "--weights", "const", "--p", "1",
                                "--n", "1", "--m-max", "64",
                                "--iters", "2000", "--seed", "1"])
        engines = {r["engine"]: r["value_sq"] for r in doc["rows"]}
        assert engines["structure"] == pytest.approx(0.25, abs=1e-9)
        assert engines["random"] <= engines["structure"] + 1e-9
        assert "structure:1" in doc["witnesses"]

    def test_structure_witness_is_a_flat_block(self, capsys):
        # const, p = 1: (k - 2) / k**2 is largest at k = 4, W_4 = 4
        doc = run_json(capsys, ["oracle", "--weights", "const", "--p", "1",
                                "--n", "2", "--iters", "100"])
        assert doc["witnesses"]["structure:2"] == [0.25] * 4

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


class TestOneTablePerRun:
    @pytest.mark.parametrize("command", ["oracle", "certify"])
    def test_one_table_for_the_grid(self, capsys, table_sizes, command):
        run_json(capsys, [command, "--weights", "powlog:alpha=1,beta=0",
                          "--p", "2", "--n", "2^4..2^10:dyadic",
                          "--iters", "200"])
        # one table, 2 (n_max + 256) long, holds every proof: the oracles
        # scan the bound scan's range, which ends where its proof closed
        assert table_sizes == [2 * (2 ** 10 + 256)]

    def test_tabulated_values_unchanged(self, capsys, tmp_path):
        path = tmp_path / "w.txt"
        path.write_text("".join(f"{float(j) ** 0.75!r}\n"
                                for j in range(1, 301)))
        argv = ["--weights", f"file:{path}", "--p", "1.5",
                "--n", "2^0..2^8:dyadic", "--iters", "500", "--seed", "3"]
        rows = run_json(capsys, ["oracle"] + argv)["rows"]
        assert [(r["n"], r["engine"], r["value_sq"]) for r in rows] == [
            (n, engine, rec[i]) for n, rec in TABLE300.items()
            for i, engine in enumerate(("structure", "random"))]
        reports = run_json(capsys, ["certify"] + argv)["reports"]
        assert {r["n"]: (r["structure_sq"], r["random_sq"],
                         r["scan_lower_sq"], r["scan_upper_sq"],
                         r["bound_status"]) for r in reports} == TABLE300
        # every engine scans to where the bound's proof closed, or to the
        # end of the file where it does not close (n = 256)
        assert [r["m_max"] for r in reports] == [256] * 8 + [300]
        assert all(r["passed"] for r in reports)

    @pytest.mark.parametrize("command", ["oracle", "certify"])
    def test_m_max_below_largest_n(self, capsys, command):
        code, out, err = run_cli(capsys, [
            command, "--weights", "const", "--p", "1",
            "--n", "2^4..2^6:dyadic", "--m-max", "40", "--iters", "100"])
        assert code == EXIT_DOMAIN and out == ""
        assert "got 40 < 65" in err
        assert err.count("\n") == 1


class TestWeightFileScan:
    """Every engine scans a weight file of L lines at most to its end,
    m = L, and reads the file's status from that scan alone; at p <= 2 the
    scan stops where the bound proves its maximum."""

    @staticmethod
    def linear_file(tmp_path) -> str:
        path = tmp_path / "w.txt"
        path.write_text("".join(f"{j}\n" for j in range(1, 101)))
        return f"file:{path}"

    def test_m_max_at_the_end_is_the_default_scan(self, capsys, tmp_path):
        argv = ["bounds", "--weights", self.linear_file(tmp_path),
                "--p", "1.5", "--n", "64"]
        [row] = run_json(capsys, argv)["rows"]
        assert run_json(capsys, argv + ["--m-max", "100"])["rows"] == [row]
        # the bound at the file's end proves the maximum
        assert (row["status"], row["m_scanned"]) == ("attained", 100)

    def test_inf_sums_the_file(self, capsys, tmp_path):
        path = tmp_path / "ones.txt"
        path.write_text("1.0\n" * 4096)
        [row] = run_json(capsys, ["bounds", "--weights", f"file:{path}",
                                  "--p", "inf", "--n", "0"])["rows"]
        assert row["status"] == "truncated-unknown"
        assert row["value_sq"] == 4096.0
        assert row["terms_summed"] == 4096

    @pytest.mark.parametrize("n", [1, 16, 64, 99, 100, 128])
    def test_every_engine_runs_to_the_end(self, capsys, tmp_path, n):
        argv = ["--weights", self.linear_file(tmp_path), "--p", "1.5",
                "--n", str(n)]
        [row] = run_json(capsys, ["bounds"] + argv)["rows"]
        oracle = run_json(capsys, ["oracle", "--iters", "200"] + argv)
        [report] = run_json(capsys, ["certify", "--iters", "200"]
                            + argv)["reports"]
        assert report["passed"]
        # no multiple of 256 lies inside the file, so every proof is
        # checked at its end; past the end the scan is empty
        assert report["m_max"] == row["m_scanned"] == (100 if n <= 100
                                                        else 0)
        if n >= 100:
            # past the file's end the structure oracle has no block left
            assert oracle["rows"][0] == {
                "n": n, "engine": "structure", "value_sq": 0.0}
            assert oracle["witnesses"][f"structure:{n}"] == []


class TestCertifyCommand:
    def test_passes_and_exit_zero(self, capsys):
        doc = run_json(capsys, ["certify", "--weights",
                                "powlog:alpha=1,beta=0", "--p", "2",
                                "--n", "8", "--seed", "42",
                                "--iters", "2000"])
        assert doc["reports"][0]["passed"] is True

    def test_p2_plateau_passes_without_a_limit_estimate(self, capsys):
        # const at p = 2 reads the limit 1.0 at every n; the containment
        # checks compare with the scan
        doc = run_json(capsys, ["certify", "--weights", "const", "--p", "2",
                                "--n", "2^0..2^6:dyadic"])
        assert len(doc["reports"]) == 7
        for report in doc["reports"]:
            assert report["passed"] is True
            assert report["bound_status"] == "limit-at-infinity"
            assert report["lower_sq"] == report["upper_sq"] == 1.0
            assert "limit_estimate" not in report

    def test_p_inf_rejected_before_any_table(self, capsys, table_sizes):
        code, out, err = run_cli(capsys, ["certify", "--weights", "const",
                                          "--p", "inf", "--n", "4"])
        assert (code, out) == (EXIT_DOMAIN, "")
        assert err.startswith("nterm: error=domain")
        assert err.count("\n") == 1
        assert "certify" in err.partition("detail=")[2]
        assert table_sizes == []

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
    @pytest.mark.parametrize("weights, p, n, first", [
        # both bounds are 0.0 and finite here, yet nothing is proved
        ("const", "1e-300", "2^2..2^6:dyadic", 4),
        ("powlog:alpha=1,beta=0", "3", "2^0..2^8:dyadic", 1),
    ])
    def test_unproved_rows_are_refused_by_status(self, capsys, weights, p,
                                                  n, first):
        code, out, err = run_cli(capsys, ["ratefit", "--weights", weights,
                                          "--p", p, "--n", n])
        assert (code, out) == (EXIT_DOMAIN, "")
        detail = (f"no finite bound is proved at n={first} "
                  f"(status truncated-unknown)")
        assert err == f"nterm: error=domain detail={detail!r}\n"

    def test_divergent_tail_is_refused_by_status(self, capsys):
        # p = inf is refused in the words of every other p
        code, out, err = run_cli(capsys, ["ratefit", "--weights", "const",
                                          "--p", "inf", "--n",
                                          "2^3..2^10:dyadic"])
        assert (code, out) == (EXIT_DOMAIN, "")
        detail = "no finite bound is proved at n=8 (status divergent)"
        assert err == f"nterm: error=domain detail={detail!r}\n"

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


# the table/csv columns of certify and ratefit
CERTIFY_COLUMNS = ["n", "bound_status", "scan_lower_sq", "scan_upper_sq",
                   "structure_sq", "random_sq", "passed"]
RATEFIT_COLUMNS = ["poly_exponent", "log_exponent", "intercept",
                   "residual_rms", "predicted_poly", "predicted_log",
                   "prediction_valid", "envelope_c_min", "envelope_c_max"]


def _rendered_cells(out: str, fmt: str) -> tuple[list[str], list[dict]]:
    """Header and rows of a table or csv artifact; a table cell is read
    from its column's offset in the header, so an empty cell reads ''."""
    lines = out.splitlines()
    if fmt == "csv":
        header = lines[0].split(",")
        cells = [line.split(",") for line in lines[1:]]
    else:
        header = lines[0].split()
        starts = [m.start() for m in re.finditer(r"\S+", lines[0])]
        bounds = list(zip(starts, starts[1:] + [None]))
        cells = [[line[a:b].strip() for a, b in bounds] for line in lines[1:]]
    return header, [dict(zip(header, row)) for row in cells]


@pytest.mark.parametrize("fmt", ["table", "csv"])
@pytest.mark.parametrize("argv, columns, n_rows, true_column", [
    (["certify", "--weights", "const", "--p", "1", "--n", "2^0..2^2:dyadic",
      "--iters", "500"], CERTIFY_COLUMNS, 3, "passed"),
    (["ratefit", "--weights", "const", "--p", "1", "--n", "2^4..2^11:dyadic"],
     RATEFIT_COLUMNS, 1, "prediction_valid"),
    # a weight file has no closed-form rate: no prediction and no envelope
    (["ratefit", "--weights", "file:{ones}", "--p", "1",
      "--n", "2^4..2^11:dyadic"], RATEFIT_COLUMNS, 1, None),
])
def test_table_and_csv_rows(capsys, tmp_path, fmt, argv, columns, n_rows,
                            true_column):
    ones = tmp_path / "ones.txt"
    ones.write_text("1.0\n" * 16384)
    argv = [a.format(ones=ones) for a in argv]
    code, out, err = run_cli(capsys, argv + ["--format", fmt])
    assert (code, err) == (EXIT_OK, "")
    header, rows = _rendered_cells(out, fmt)
    assert header == columns
    assert len(rows) == n_rows
    for row in rows:
        assert all(row[c] != "" for c in columns[:4])
        if true_column is None:
            assert [row[c] for c in columns[4:]] == [""] * 5
        else:
            assert row[true_column] == "true"


class TestErrorPaths:
    def test_unknown_weight_spec(self, capsys):
        code, _, err = run_cli(capsys, ["bounds", "--weights", "nope",
                                        "--p", "1", "--n", "1"])
        assert code == EXIT_BAD_SPEC
        assert err.startswith("nterm: error=weight-spec")

    @pytest.mark.parametrize("command, extra", [
        ("bounds", ["--p", "1", "--n", "1"]),
        ("oracle", ["--p", "1", "--n", "1"]),
        ("certify", ["--p", "1", "--n", "1"]),
    ])
    def test_missing_weight_file(self, capsys, command, extra):
        code, out, err = run_cli(capsys, [
            command, "--weights", "file:/does/not/exist"] + extra)
        assert (code, out) == (EXIT_IO, "")
        assert err.startswith("nterm: error=io")
        assert "/does/not/exist" in err
        assert err.count("\n") == 1

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

    @pytest.mark.parametrize("command", ["bounds", "certify", "oracle"])
    def test_p_whose_two_over_p_overflows(self, capsys, command):
        # 2/p, the envelopes' exponent, is inf at a subnormal p: one error
        # line, and no NumPy warning from a NaN bound
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, [
                command, "--weights", "const", "--p", "1e-320", "--n", "4"])
        assert (code, out) == (EXIT_DOMAIN, "")
        assert err.startswith("nterm: error=domain")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("p", ["1.2e-308", "1e-306", "1e-305"])
    @pytest.mark.parametrize("command", ["bounds", "certify", "oracle"])
    def test_p_near_zero_runs_quietly(self, capsys, command, p):
        # 2/p is finite but 2/p times an index, or log W_m, passes the
        # float64 range: no NumPy warning, and every value, far below the
        # smallest float, is 0.0.  The envelopes' maxima fall to 0.0 too,
        # so no bound proves them
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, [
                command, "--weights", "const", "--p", p, "--n", "4",
                "--format", "json"])
        assert (code, err) == (0, "")
        doc = json.loads(out)
        if command == "bounds":
            (row,) = doc["rows"]
            assert (row["lower_sq"], row["upper_sq"], row["status"]) == (
                0.0, 0.0, "truncated-unknown")
        elif command == "certify":
            (report,) = doc["reports"]
            assert report["passed"] and report["structure_sq"] == 0.0
        else:
            assert [r["value_sq"] for r in doc["rows"]] == [0.0, 0.0]

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

    @pytest.mark.parametrize("spec, key", [
        ("powlog:alpha=1,beta=0,alpha=3", "alpha"),
        ("powlog:alpha=1, alpha=3,beta=0", "alpha"),
        ("logpow:beta=1,beta=2", "beta")])
    def test_repeated_weight_parameter(self, capsys, spec, key):
        # a second value of a parameter is an error, not the value used
        code, out, err = run_cli(capsys, ["bounds", "--weights", spec,
                                          "--p", "1", "--n", "4"])
        assert (code, out) == (EXIT_BAD_SPEC, "")
        assert err.startswith("nterm: error=weight-spec")
        assert f"repeated parameter {key!r}" in err and spec in err
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
        # named by its line, the blank lines before it counted
        path = tmp_path / "seq.txt"
        for text, where in [("1\n\nnan\n3\n", "3 is nan"),
                            (" \n\n2\n-1e999", "4 is -inf"),
                            ("1\r\n\r\ninf\r\n", "3 is inf")]:
            path.write_text(text)
            code, out, err = run_cli(capsys, [
                "exact", "--sequence", str(path), "--n", "0"])
            assert code == EXIT_DOMAIN and out == ""
            detail = f"{path}:{where}, not finite"
            assert err == f"nterm: error=domain detail={detail!r}\n"

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

    def test_first_overflow_is_named(self, capsys):
        # j**60 first overflows at j = 137271, inside m_max = 2^18
        code, out, err = run_cli(capsys, [
            "bounds", "--weights", "powlog:alpha=60,beta=0", "--p", "1",
            "--n", "2^12"])
        assert code == EXIT_DOMAIN and out == ""
        assert "w_137271 is not finite" in err
        assert err.count("\n") == 1

    def test_overflow_past_the_run_is_not_read(self, capsys):
        # m_max = 1024 stops well short of the overflow at j = 137271
        code, out, err = run_cli(capsys, [
            "bounds", "--weights", "powlog:alpha=60,beta=0", "--p", "1",
            "--n", "4"])
        assert code == EXIT_OK and err == ""

    def test_nan_weights_summed_in_logs(self, capsys):
        # j**51 overflows where log2(j + 1)**-300 is already 0: inf * 0 is
        # NaN, so those weights are summed in logarithms, all below 1 here
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, [
                "bounds", "--weights", "powlog:alpha=51,beta=-300", "--p",
                "1", "--n", "2^15"])
        assert code == EXIT_OK and err == ""
        assert "attained" in out

    def test_steep_power_of_a_vanishing_log(self, capsys):
        # j**200 overflows and log2(j + 1)**-500 underflows from j = 35 on
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            doc = run_json(capsys, [
                "bounds", "--weights", "powlog:alpha=200,beta=-500",
                "--p", "1", "--n", "1"])
        assert doc["rows"][0]["status"] == "attained"

    @pytest.mark.parametrize("command, spec", [
        ("bounds", "powlog:alpha=1,beta=-6"),      # plateau to ~2^29.5
        ("bounds", "powlog:alpha=1,beta=-100"),    # log factor ** 200
        ("ratefit", "powlog:alpha=1,beta=-100"),
        ("bounds", "powlog:alpha=20,beta=-200"),   # log factor ** 400
    ])
    def test_p_inf_plateau_past_the_head(self, capsys, command, spec):
        code, out, err = run_cli(capsys, [
            command, "--weights", spec, "--p", "inf", "--n", "16"])
        assert code == EXIT_DOMAIN and out == ""
        assert err.startswith("nterm: error=domain")
        assert "plateau" in err
        assert err.count("\n") == 1

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
    def test_undecodable_file_is_a_bad_spec(self, capsys, tmp_path):
        # exit 2 like any bad line of a weight file; a sequence file that
        # is not UTF-8 stays exit 3 (TestExact.test_undecodable_file)
        path = tmp_path / "bad.txt"
        path.write_bytes(b"1.0\n\xff\n")
        code, out, err = run_cli(capsys, ["bounds", "--weights",
                                          f"file:{path}", "--p", "1",
                                          "--n", "1"])
        assert (code, out) == (EXIT_BAD_SPEC, "")
        assert err.startswith("nterm: error=weight-spec")
        assert str(path) in err and "position 4" in err
        assert err.count("\n") == 1

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
            [256] * 4 + [512, 768, 1536, 3072])
        assert fit["samples"] == [
            {"n": r["n"], "sigma": math.sqrt(r["upper_sq"])}
            for r in bounds["rows"]]


# input files of the contract test: name -> text; "missing" is never written
CONTRACT_FILES = {
    "w_short": "1\n1.5\n",
    "w_one": "2\n",
    "w_steep": "1\n1e100\n1e200\n1e300\n",
    "w_bad_blank_inside": "1\n\n2\n",
    "w_bad_not_a_number": "1\nx\n",
    "w_bad_decreasing": "1\n3\n2\n",
    "w_bad_below_one": "0.5\n1\n",
    "w_bad_empty": "",
    "w_bad_nan": "1\nnan\n",
    "s_short": "3\n-4\n",
    "s_huge": "1e300\n1e300\n",
    "s_bad": "1\nhello\n",
    "s_empty": "\n",
}


def _mostly(valid, invalid):
    """valid, or one of the invalid values about one time in sixteen."""
    return st.integers(0, 15).flatmap(
        lambda k: st.sampled_from(invalid) if k == 15 else valid)


def _weights(directory: str):
    return _mostly(
        st.one_of(
            st.just("const"),
            st.builds("logpow:beta={!r}".format, st.floats(0.0, 8.0)),
            st.builds("powlog:alpha={!r},beta={!r}".format,
                      st.one_of(st.sampled_from([0.5, 1.0, 12.0, 60.0]),
                                st.floats(-1.0, 60.0)),
                      st.one_of(st.sampled_from([-300.0, -1.0, 0.0, 300.0]),
                                st.floats(-300.0, 300.0))),
            st.sampled_from([f"file:{directory}/{k}" for k in
                             ("w_short", "w_one", "w_steep")])),
        ["nope", "powlog:alpha=1", "logpow:beta=-1"]
        + [f"file:{directory}/{k}" for k in sorted(CONTRACT_FILES)
           if k.startswith("w_bad")] + [f"file:{directory}/missing"])


def _int(lo, hi):
    return _mostly(st.builds(str, st.integers(lo, hi)), ["-1", "0", "x"])


@st.composite
def _argv(draw, directory: str) -> list[str]:
    """A command of ``COMMANDS`` with values for its flags; an optional
    flag is given or left out, and a value may be malformed or out of
    range."""
    command = draw(st.sampled_from(sorted(COMMANDS)))
    values = {
        "weights": _weights(directory),
        "p": _mostly(st.one_of(
            st.sampled_from(["inf", "2", repr(2 + 1e-12), repr(2 - 1e-12),
                             repr(2 + 1e-13), repr(2 - 1e-13), "0.5", "1",
                             "3", "8", "1e-300", "1.2e-308", "1e6",
                             "1e300"]),
            st.builds(repr, st.floats(1e-3, 40.0))), ["0", "nan", "x"]),
        "n": _mostly(st.sampled_from(
            ["0", "1", "3", "2^4", "2^6", "2^0..2^3:dyadic",
             "1..2^7:dyadic"]), ["0..2^2:dyadic", "2^2..2^1:dyadic", "x"]),
        "m_max": _int(1, 300),
        "sequence": _mostly(
            st.sampled_from([f"{directory}/s_short", f"{directory}/s_huge"]),
            [f"{directory}/{k}" for k in ("s_bad", "s_empty", "missing")]),
        "seed": _int(0, 3),
        "iters": _int(1, 40),
        "max_support": _int(1, 16),
        "fix_log": _mostly(st.sampled_from(["auto", "none", "0", "1.5"]),
                           ["nan", "x"]),
    }
    argv = [command]
    for flag in COMMANDS[command].flags:
        # iters is always given, so that the random oracle stays small
        if (_FLAGS[flag].get("required") or flag == "iters"
                or draw(st.booleans())):
            argv += ["--" + flag.replace("_", "-"), draw(values[flag])]
    return argv + ["--format", "json"]


def _check_regime(argv: list[str], doc: dict) -> None:
    """Every finite-p ``bounds`` row and ``certify`` report has a status of
    its regime: at p <= 2 ``attained`` or ``truncated-unknown``, and
    ``limit-at-infinity`` on the plateau, at p = 2 exactly; at 2 < p < inf
    ``divergent`` or ``truncated-unknown``."""
    if argv[0] not in ("bounds", "certify"):
        return
    p = float(argv[argv.index("--p") + 1])
    if math.isinf(p):
        return
    statuses = ({r["status"] for r in doc["rows"]} if argv[0] == "bounds"
                else {r["bound_status"] for r in doc["reports"]})
    if p > 2:
        allowed = {"divergent", "truncated-unknown"}
    else:
        allowed = {"attained", "truncated-unknown"}
        if p == 2:
            allowed.add("limit-at-infinity")
    assert statuses <= allowed, (argv, statuses)


@pytest.fixture(scope="module")
def contract_dir(tmp_path_factory) -> str:
    directory = tmp_path_factory.mktemp("contract")
    for name, text in CONTRACT_FILES.items():
        (directory / name).write_text(text)
    return str(directory)


class TestContract:
    """Any argv of the command table ends in a documented exit code: an
    error is one stderr line with nothing on stdout, and an artifact is
    valid JSON of the schema with no NaN."""

    @pytest.mark.parametrize("argv", [
        # a random-oracle norm past the float64 range
        "oracle --weights file:{dir}/w_steep --p 2 --n 0",
        "certify --weights file:{dir}/w_steep --p 2 --n 0",
        "oracle --weights const --p 0.003 --n 1",
        "certify --weights const --p 0.003 --n 1",
    ])
    def test_overflowing_norms(self, capsys, contract_dir, argv):
        argv = argv.format(dir=contract_dir).split() + ["--format", "json"]
        code, out, err = run_cli(capsys, argv)
        assert code == EXIT_OK or (
            code == EXIT_CERTIFY_FAIL and argv[0] == "certify"), err
        assert err == ""
        jsonschema.validate(json.loads(out), SCHEMA)
        assert "nan" not in out

    @pytest.mark.parametrize("support, p", [
        (2 ** 16 - 1, "1"), (2 ** 16, "0.003"), (2 ** 16 + 1, "3")])
    def test_one_row_blocks(self, capsys, support, p):
        # at and just past _BLOCK = 2**16 a block of the random oracle
        # holds one row
        code, out, err = run_cli(capsys, [
            "certify", "--weights", "powlog:alpha=1,beta=0", "--p", p,
            "--n", "1..2^7:dyadic", "--iters", "40",
            "--max-support", str(support), "--format", "json"])
        assert code in (EXIT_OK, EXIT_CERTIFY_FAIL), err
        assert err == ""
        jsonschema.validate(json.loads(out), SCHEMA)
        assert "nan" not in out

    @pytest.mark.parametrize("p", [
        "1.2e-308", "1e-300", repr(2 - 1e-13), repr(2 + 1e-13), "1e6",
        "1e300"])
    def test_extreme_p(self, capsys, contract_dir, p):
        # four weight families through every command that takes weights
        families = ("const", "logpow:beta=1.5", "powlog:alpha=1,beta=-1",
                    f"file:{contract_dir}/w_steep")
        for command in ("bounds", "certify", "oracle", "ratefit"):
            for weights in families:
                argv = [command, "--weights", weights, "--p", p,
                        "--n", "2^0..2^4:dyadic", "--format", "json"]
                if command in ("certify", "oracle"):
                    argv += ["--iters", "20"]
                code, out, err = run_cli(capsys, argv)
                if command == "ratefit":
                    # too few samples, or a row that proves no bound
                    assert (code, out) == (EXIT_DOMAIN, ""), argv
                    assert err.count("\n") == 1, argv
                    continue
                assert code in (EXIT_OK, EXIT_CERTIFY_FAIL), (argv, err)
                assert err == "", argv
                doc = json.loads(out)
                jsonschema.validate(doc, SCHEMA)
                assert "nan" not in out, argv
                _check_regime(argv, doc)

    @settings(max_examples=300, derandomize=True, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture,
                                     HealthCheck.too_slow])
    @given(data=st.data())
    def test_exit_codes_and_artifacts(self, capsys, contract_dir, data):
        argv = data.draw(_argv(contract_dir))
        code, out, err = run_cli(capsys, argv)
        if code in (EXIT_OK, EXIT_CERTIFY_FAIL):
            assert err == "", argv
            doc = json.loads(out)
            jsonschema.validate(doc, SCHEMA)
            _check_regime(argv, doc)
            if code == EXIT_CERTIFY_FAIL:
                assert argv[0] == "certify", argv
                assert not all(r["passed"] for r in doc["reports"]), argv
            else:
                assert "nan" not in out, argv
        else:
            assert code in (EXIT_BAD_SPEC, EXIT_DOMAIN, EXIT_IO), argv
            assert out == "", argv
            assert err.startswith("nterm: error="), (argv, err)
            assert err.count("\n") == 1 and err.endswith("\n"), (argv, err)
