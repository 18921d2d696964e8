"""Command-line front end.

``COMMANDS`` declares each subcommand once with its flags (required
unless bracketed) and ``_FLAGS`` declares each flag; the parser, the JSON
``params`` and the dispatch are all read from these two tables.

* ``bounds --weights --p --n [--m-max]``: worst-case error bounds per n
  (tail sums when p = inf, where ``--m-max`` has no effect)
* ``exact --sequence --n``: exact sigma_n of a sequence file
* ``oracle --weights --p --n [--m-max --seed --iters --max-support]``:
  structured and random-search maximizer values
* ``certify``, with the flags of ``oracle``: bounds vs. oracles
  cross-check at finite p; exit 1 on failure
* ``ratefit --weights --p --n [--m-max --fix-log]``: decay
  exponent fit over an n grid plus the prediction

Every command also takes ``[--format table|csv|json] [--output PATH]``.
``--weights`` is ``const``, ``logpow:beta=F``, ``powlog:alpha=F,beta=F``
or ``file:PATH``; ``--p`` is in (0, inf]; ``--n`` is an index (``17``,
``2^10``) or a dyadic range (``2^4..2^12:dyadic``).

The two input files, ``--sequence PATH`` and ``--weights file:PATH``, have
one format and one reader, ``weights.read_number_lines``: one number per
line, lines cut as ``str.splitlines`` cuts them, read into a float64 array
of the numbers and the line numbers of the blank lines.  A sequence skips
blank lines.  A weight table, line k being w_k, may end in blank lines but
holds none inside; one there is exit 2, named as ``PATH:LINE``.  A line that is
not a number is named as ``PATH:LINE`` too, and a file that is not UTF-8 text
is named by its path: either is exit 2 in a weight file, exit 3 in a sequence
file.  A file that cannot be read is exit 4.

Formats: ``table`` (human), ``csv``, ``json``.  JSON documents validate
against ``schemas/output.json``; numbers serialize as shortest round-trip
decimals with non-finite values spelled ``"inf"``/``"-inf"``/``"nan"``.
Identical invocations (including seeds) produce byte-identical output.

Exit codes: 0 success, 1 failed certification, 2 bad weight spec or
arguments, 3 numeric domain errors (also an index too large to allocate,
and a result past the float64 range, such as an ``exact`` sigma_n**2),
4 I/O errors.  A closed-form weight that is not finite is exit 2 among the
first 1024, which parsing the spec checks, and exit 3 when a run reads it
later.  An error writes nothing to stdout and one line to stderr,
``nterm: error=KIND detail=...``; a missing, unknown or malformed flag is
KIND ``usage``.

The CLI loads numpy with a single-thread OpenBLAS unless
``OPENBLAS_NUM_THREADS`` is already set: it makes no BLAS call worth a
thread, and a pool's idle worker would spin about 0.1 s of CPU in every
process.  Importing the ``nterm`` package alone sets nothing.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
from dataclasses import asdict, dataclass
from io import StringIO
from pathlib import Path
from typing import Callable

# No call here is worth a BLAS thread, and the pool's worker spins about
# 0.1 s of CPU in every process.  OpenBLAS reads this once, when numpy
# loads it, so it comes before the first import that loads numpy; a value
# already set wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np

from .bounds import _check_p, run_table
from .oracle import OracleConfig, certify, run_oracles
from .ratefit import class_error_samples, dyadic_grid, fit_rate, ratio_envelope
from .sequences import CoefficientSequence, scaled_tail_sqs
from .weights import (
    UnsupportedFamilyError,
    WeightSpecError,
    WeightValidationError,
    parse_weight_spec,
    predicted_rate,
    read_number_lines,
)

__all__ = ["COMMANDS", "main", "parse_argv", "render", "run"]

EXIT_OK = 0
EXIT_CERTIFY_FAIL = 1
EXIT_BAD_SPEC = 2
EXIT_DOMAIN = 3
EXIT_IO = 4

_N_TERM = r"(?:\d+|2\^\d+)"
_N_RANGE = re.compile(rf"^({_N_TERM})\.\.({_N_TERM}):dyadic$")


def _parse_n_term(text: str) -> int:
    if text.startswith("2^"):
        return 2 ** int(text[2:])
    return int(text)


def parse_n_spec(text: str) -> list[int]:
    """Single index ``17`` / ``2^10``, or dyadic range ``2^4..2^12:dyadic``."""
    text = text.strip()
    m = _N_RANGE.match(text)
    if m:
        return dyadic_grid(_parse_n_term(m.group(1)), _parse_n_term(m.group(2)))
    if re.fullmatch(_N_TERM, text):
        return [_parse_n_term(text)]
    raise ValueError(f"cannot parse n spec {text!r}")


def _parse_p(text: str) -> float:
    try:
        p = float(text)
    except ValueError:
        raise ValueError(f"cannot parse p value {text!r}") from None
    if p != math.inf:
        _check_p(p)
    return p


def _jsonable(obj):
    """Make floats JSON-strict: non-finite values become strings."""
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        if math.isnan(x):
            return "nan"
        if math.isinf(x):
            return "inf" if x > 0 else "-inf"
        return x
    return obj


# ---------------------------------------------------------------------------
# command payloads: each runner returns (payload, exit code)

def _run_bounds(ns) -> tuple[dict, int]:
    w = parse_weight_spec(ns.weights)
    n_values = parse_n_spec(ns.n)
    results = run_table(w, ns.p, n_values, ns.m_max)[1]
    if math.isinf(ns.p):
        columns = ["n", "value_sq", "truncation_bound", "status",
                   "terms_summed"]
    else:
        columns = ["n", "lower_sq", "upper_sq", "status", "argmax_m",
                   "m_scanned"]
    rows = [{"n": n, **{c: getattr(r, c) for c in columns[1:]}}
            for n, r in zip(n_values, results)]
    return {"rows": rows, "columns": columns}, EXIT_OK


def _run_exact(ns) -> tuple[dict, int]:
    try:
        # blank lines are skipped
        x = CoefficientSequence(read_number_lines(ns.sequence)[0])
    except OSError as exc:
        raise IOError(f"cannot read sequence file: {exc}") from exc
    n_values = parse_n_spec(ns.n)
    rows = []
    for n, (s, e) in zip(n_values, scaled_tail_sqs(x, n_values)):
        # one exact sum gives both, so sigma_sq is not the square of sigma
        rows.append({"n": n, "sigma_sq": math.ldexp(s, 2 * e),
                     "sigma": math.ldexp(math.sqrt(s), e),
                     "support_len": x.support_len})
    return ({"rows": rows, "columns": ["n", "sigma_sq", "sigma", "support_len"]},
            EXIT_OK)


def _oracle_config(ns) -> OracleConfig:
    return OracleConfig(m_max=ns.m_max, iters=ns.iters, seed=ns.seed,
                        max_support=ns.max_support)


def _run_oracle(ns) -> tuple[dict, int]:
    w = parse_weight_spec(ns.weights)
    rows = []
    witnesses = {}
    for n, _, structure, (r_sq, r_wit) in run_oracles(
            w, ns.p, parse_n_spec(ns.n), _oracle_config(ns)):
        if structure is not None:
            s_sq, s_wit = structure
            rows.append({"n": n, "engine": "structure", "value_sq": s_sq})
            witnesses[f"structure:{n}"] = s_wit.entries.tolist()
        rows.append({"n": n, "engine": "random", "value_sq": r_sq})
        witnesses[f"random:{n}"] = r_wit.entries.tolist()
    return ({"rows": rows, "columns": ["n", "engine", "value_sq"],
             "witnesses": witnesses}, EXIT_OK)


def _run_certify(ns) -> tuple[dict, int]:
    w = parse_weight_spec(ns.weights)
    cfg = _oracle_config(ns)
    reports = certify(w, ns.p, parse_n_spec(ns.n), cfg)
    payload = {"reports": [r.as_dict() for r in reports]}
    code = EXIT_OK if all(r.passed for r in reports) else EXIT_CERTIFY_FAIL
    return payload, code


def _fix_log(text: str, prediction) -> float | None:
    """``--fix-log``: 'none', 'auto' (the predicted exponent) or a number."""
    if text == "none":
        return None
    if text == "auto":
        return prediction.log_exponent if prediction is not None else None
    try:
        fixed = float(text)
        if math.isfinite(fixed):
            return fixed
    except ValueError:
        pass
    raise ValueError(
        f"--fix-log must be 'auto', 'none', or a finite number, got {text!r}")


def _run_ratefit(ns) -> tuple[dict, int]:
    w = parse_weight_spec(ns.weights)
    n_values = parse_n_spec(ns.n)
    samples = class_error_samples(w, ns.p, n_values, m_max=ns.m_max)
    try:
        prediction = predicted_rate(w, ns.p)
    except UnsupportedFamilyError:  # tabulated weights
        prediction = None

    fixed = _fix_log(ns.fix_log, prediction)
    fit = fit_rate(samples, fixed_log_exponent=fixed)
    payload = {
        "samples": [{"n": n, "sigma": s} for n, s in samples],
        "fit": {k: getattr(fit, k) for k in (
            "poly_exponent", "log_exponent", "intercept", "residual_rms")},
        "prediction": None if prediction is None else asdict(prediction),
        "envelope": None,
    }
    if prediction is not None and prediction.valid:
        c_min, c_max = ratio_envelope(samples, prediction)
        payload["envelope"] = {
            "c_min": c_min, "c_max": c_max, "ratio": c_max / c_min}
    return payload, EXIT_OK


# ---------------------------------------------------------------------------
# table/csv rows of each payload

def _listed_rows(payload: dict) -> tuple[list[dict], list[str]]:
    return payload["rows"], payload["columns"]


_CERTIFY_COLUMNS = ["n", "bound_status", "scan_lower_sq", "scan_upper_sq",
                    "structure_sq", "random_sq", "passed"]


def _certify_rows(payload: dict) -> tuple[list[dict], list[str]]:
    return payload["reports"], _CERTIFY_COLUMNS


def _ratefit_rows(payload: dict) -> tuple[list[dict], list[str]]:
    pred = payload["prediction"] or {}
    env = payload["envelope"] or {}
    row = {
        **payload["fit"],
        "predicted_poly": pred.get("poly_exponent"),
        "predicted_log": pred.get("log_exponent"),
        "prediction_valid": pred.get("valid"),
        "envelope_c_min": env.get("c_min"),
        "envelope_c_max": env.get("c_max"),
    }
    return [row], list(row)


# ---------------------------------------------------------------------------
# the flag and command tables

# flag name -> argparse options; the option is --name with '_' as '-'
_FLAGS = {
    "weights": dict(required=True, metavar="SPEC",
                    help="const | logpow:beta=F | "
                         "powlog:alpha=F,beta=F | file:PATH, one weight "
                         "per line, blank lines only at the end; a bad "
                         "line or a file that is not UTF-8 is exit 2, an "
                         "unreadable file exit 4; at p <= 2 a file's "
                         "status is 'attained' when the bound past the "
                         "scan proves its maximum, for every "
                         "nondecreasing continuation of the file, else "
                         "'truncated-unknown', as at every 2 < p < inf; "
                         "at p = inf "
                         "a file is summed to its end and always reads "
                         "'truncated-unknown'"),
    "p": dict(required=True, metavar="P",
              help="exponent in (0, inf]; 'inf' accepted"),
    "n": dict(required=True, metavar="N",
              help="index or dyadic range like 2^4..2^12:dyadic"),
    "m_max": dict(type=int, default=None,
                  help="cap of the scan, default max(1024, 64n); clipped "
                       "to a weight file's length L; at p <= 2 the scan "
                       "stops where its maximum is proved, m_scanned; no "
                       "effect at p = inf, where there is no scan"),
    "sequence": dict(required=True, metavar="PATH",
                     help="text file, one coefficient per line; blank "
                          "lines are skipped, a line that is not a number "
                          "is exit 3, an unreadable file exit 4"),
    "seed": dict(type=int, default=0,
                 help="seed of the random oracle's sample set"),
    "iters": dict(type=int, default=20000,
                  help="random samples drawn; one sample set of ITERS "
                       "draws serves every n of the run, drawn a block of "
                       "rows at a time, so memory does not grow with "
                       "ITERS"),
    "max_support": dict(type=int, default=64,
                        help="random samples live on the first "
                             "MAX_SUPPORT indices (fewer if the weight file "
                             "is shorter); at or past that n the random "
                             "value is 0.0 with an empty witness; memory "
                             "is one block of about 2^16 values, or one "
                             "row where MAX_SUPPORT is larger"),
    "fix_log": dict(default="auto",
                    help="'auto' pins s to the predicted log exponent, "
                         "'none' fits it, or give a finite number"),
    "format": dict(default="table", choices=("table", "csv", "json")),
    "output": dict(default=None, metavar="PATH",
                   help="write the artifact here instead of stdout"),
}

# taken by every command; of these only "format" goes into the JSON params
_COMMON_FLAGS = ("format", "output")


@dataclass(frozen=True)
class Command:
    """A subcommand: its flags, runner and table/csv rows.

    ``rows`` flattens the payload to (rows, columns).
    """

    help: str
    flags: tuple[str, ...]
    runner: Callable[[argparse.Namespace], tuple[dict, int]]
    rows: Callable[[dict], tuple[list[dict], list[str]]]


_ORACLE_FLAGS = ("weights", "p", "n", "m_max", "seed", "iters", "max_support")

COMMANDS = {
    "bounds": Command("worst-case error bounds per n",
                      ("weights", "p", "n", "m_max"),
                      _run_bounds, _listed_rows),
    "exact": Command("exact sigma_n of a sequence file",
                     ("n", "sequence"), _run_exact, _listed_rows),
    "oracle": Command("structured and random-search maximizer values",
                      _ORACLE_FLAGS, _run_oracle, _listed_rows),
    "certify": Command("bounds vs. oracles cross-check at finite p",
                       _ORACLE_FLAGS, _run_certify, _certify_rows),
    "ratefit": Command("fit decay exponents over an n grid",
                       ("weights", "p", "n", "m_max", "fix_log"),
                       _run_ratefit, _ratefit_rows),
}


class _Parser(argparse.ArgumentParser):
    """Raises where argparse would print the usage and exit, so that a bad
    flag is one stderr line like every other error."""

    def error(self, message):
        raise argparse.ArgumentError(None, message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="nterm",
        description="n-term approximation errors for weighted lp balls")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, cmd in COMMANDS.items():
        sp = sub.add_parser(name, help=cmd.help)
        for flag in cmd.flags + _COMMON_FLAGS:
            sp.add_argument("--" + flag.replace("_", "-"), dest=flag,
                            **_FLAGS[flag])
    return parser


def parse_argv(argv: list[str]) -> argparse.Namespace:
    """Parsed flags of one invocation, with ``p`` converted to a float."""
    ns = _build_parser().parse_args(argv)
    if hasattr(ns, "p"):
        ns.p = _parse_p(ns.p)
    return ns


# ---------------------------------------------------------------------------
# rendering

def _csv_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return str(v).lower()
    if isinstance(v, float):
        return repr(float(v))
    return str(v)


def _render_rows_csv(rows, columns) -> str:
    out = StringIO()
    out.write(",".join(columns) + "\n")
    for row in rows:
        out.write(",".join(_csv_cell(row.get(c)) for c in columns) + "\n")
    return out.getvalue()


def _render_rows_table(rows, columns) -> str:
    cells = [[_csv_cell(row.get(c)) for c in columns] for row in rows]
    widths = [max(len(c), *(len(r[i]) for r in cells)) if cells else len(c)
              for i, c in enumerate(columns)]
    lines = ["  ".join(c.ljust(w) for c, w in zip(columns, widths)).rstrip()]
    for r in cells:
        lines.append("  ".join(v.ljust(w) for v, w in zip(r, widths)).rstrip())
    return "\n".join(lines) + "\n"


def render(ns: argparse.Namespace, payload: dict) -> str:
    cmd = COMMANDS[ns.command]
    if ns.format == "json":
        params = {"format": ns.format}
        params.update((f, getattr(ns, f)) for f in cmd.flags
                      if getattr(ns, f) is not None)
        doc = {"command": ns.command, "params": params}
        doc.update(payload)
        return json.dumps(_jsonable(doc), sort_keys=True,
                          separators=(",", ":"), allow_nan=False) + "\n"
    rows, columns = cmd.rows(payload)
    if ns.format == "csv":
        return _render_rows_csv(rows, columns)
    return _render_rows_table(rows, columns)


def run(ns: argparse.Namespace) -> tuple[str, int]:
    """Execute a parsed invocation; returns (artifact text, exit code)."""
    payload, code = COMMANDS[ns.command].runner(ns)
    return render(ns, payload), code


def _fail(kind: str, exc: Exception, code: int) -> int:
    print(f"nterm: error={kind} detail={str(exc)!r}", file=sys.stderr)
    return code


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        ns = parse_argv(list(argv))
    except argparse.ArgumentError as exc:
        return _fail("usage", exc, EXIT_BAD_SPEC)
    except SystemExit as exc:  # --help
        return EXIT_BAD_SPEC if exc.code else EXIT_OK
    except ValueError as exc:
        return _fail("domain", exc, EXIT_DOMAIN)

    try:
        text, code = run(ns)
    except (WeightSpecError, WeightValidationError) as exc:
        return _fail("weight-spec", exc, EXIT_BAD_SPEC)
    except (ValueError, MemoryError, OverflowError) as exc:
        # UnsupportedFamilyError is a ValueError; MemoryError is an index
        # too large for the arrays it needs; OverflowError is a result past
        # the float64 range
        return _fail("domain", exc, EXIT_DOMAIN)
    except OSError as exc:
        return _fail("io", exc, EXIT_IO)

    try:
        if ns.output is not None:
            Path(ns.output).write_text(text, encoding="utf-8")
        else:
            sys.stdout.write(text)
    except OSError as exc:
        return _fail("io", exc, EXIT_IO)
    return code


if __name__ == "__main__":
    sys.exit(main())
