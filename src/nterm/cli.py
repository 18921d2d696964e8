"""Command-line front end.

Subcommands map onto the library engines:

* ``bounds``    worst-case error bounds per n (tail sums when p = inf)
* ``exact``     exact sigma_n of a concrete sequence read from a file
* ``extremal``  the equal-entry unit-sphere witness sequence
* ``oracle``    structured and random-search maximizer values
* ``certify``   bounds vs. oracles cross-check; exit 1 on failure
* ``ratefit``   decay-exponent fit over an n grid plus the prediction

Formats: ``table`` (human), ``csv``, ``json``.  JSON documents validate
against ``schemas/output.json``; numbers serialize as shortest round-trip
decimals with non-finite values spelled ``"inf"``/``"-inf"``/``"nan"``.
Identical invocations (including seeds) produce byte-identical output.

Exit codes: 0 success, 1 failed certification, 2 bad weight spec or
arguments, 3 numeric domain errors, 4 I/O errors.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from dataclasses import dataclass, fields
from io import StringIO
from pathlib import Path

import numpy as np

from .bounds import class_bounds, class_error_infty, default_m_max
from .oracle import OracleConfig, certify, random_search_oracle, structure_oracle
from .ratefit import class_error_samples, fit_rate, ratio_envelope
from .sequences import CoefficientSequence, extremal_sequence, scaled_tail_sq
from .weights import (
    TabulatedWeights,
    UnsupportedFamilyError,
    WeightSpecError,
    WeightValidationError,
    parse_weight_spec,
    predicted_rate,
)

__all__ = ["RunSpec", "main", "run"]

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
        lo, hi = _parse_n_term(m.group(1)), _parse_n_term(m.group(2))
        if lo > hi:
            raise ValueError(f"empty n range {text!r}")
        out = []
        v = lo
        while v <= hi:
            out.append(v)
            v *= 2
        return out
    if re.fullmatch(_N_TERM, text):
        return [_parse_n_term(text)]
    raise ValueError(f"cannot parse n spec {text!r}")


def _parse_p(text: str) -> float:
    try:
        p = float(text)
    except ValueError:
        raise ValueError(f"cannot parse p value {text!r}") from None
    if math.isnan(p) or p <= 0:
        raise ValueError(f"p must be positive, got {text!r}")
    return p


def _fmt_float(x: float) -> str:
    return repr(float(x))


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


@dataclass(frozen=True)
class RunSpec:
    """Normalized invocation; round-trips through its argv form."""

    command: str
    weights: str | None = None
    p: float | None = None
    n: str | None = None
    m: int | None = None
    m_max: int | None = None
    sequence: str | None = None
    fmt: str = "table"
    seed: int = 0
    iters: int = 20000
    max_support: int = 64
    fit_model: str = "poly-log"
    fix_log: str = "auto"
    output: str | None = None

    def to_argv(self) -> list[str]:
        argv = [self.command]
        if self.weights is not None:
            argv += ["--weights", self.weights]
        if self.p is not None:
            argv += ["--p", "inf" if math.isinf(self.p) else repr(self.p)]
        if self.n is not None:
            argv += ["--n", self.n]
        if self.m is not None:
            argv += ["--m", str(self.m)]
        if self.m_max is not None:
            argv += ["--m-max", str(self.m_max)]
        if self.sequence is not None:
            argv += ["--sequence", self.sequence]
        argv += ["--format", self.fmt, "--seed", str(self.seed)]
        if self.command in ("oracle", "certify"):
            argv += [
                "--iters", str(self.iters),
                "--max-support", str(self.max_support),
            ]
        if self.command == "ratefit":
            argv += ["--model", self.fit_model, "--fix-log", self.fix_log]
        if self.output is not None:
            argv += ["--output", self.output]
        return argv


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nterm",
        description="n-term approximation errors for weighted lp balls")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, weights=True, p=True, n=True):
        if weights:
            sp.add_argument("--weights", required=True, metavar="SPEC",
                            help="const | logpow:beta=F | "
                                 "powlog:alpha=F,beta=F | file:PATH")
        if p:
            sp.add_argument("--p", required=True, metavar="P",
                            help="exponent in (0, inf]; 'inf' accepted")
        if n:
            sp.add_argument("--n", required=True, metavar="N",
                            help="index or dyadic range like 2^4..2^12:dyadic")
        sp.add_argument("--format", dest="fmt", default="table",
                        choices=("table", "csv", "json"))
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--output", default=None, metavar="PATH",
                        help="write the artifact here instead of stdout")

    sp = sub.add_parser("bounds", help="worst-case error bounds per n")
    common(sp)
    sp.add_argument("--m-max", dest="m_max", type=int, default=None)

    sp = sub.add_parser("exact", help="exact sigma_n of a sequence file")
    common(sp, weights=False, p=False)
    sp.add_argument("--sequence", required=True, metavar="PATH",
                    help="text file, one coefficient per line")

    sp = sub.add_parser("extremal", help="equal-entry unit-sphere sequence")
    common(sp, n=False)
    sp.add_argument("--m", type=int, required=True)

    for name in ("oracle", "certify"):
        sp = sub.add_parser(name)
        common(sp)
        sp.add_argument("--m-max", dest="m_max", type=int, default=None)
        sp.add_argument("--iters", type=int, default=20000)
        sp.add_argument("--max-support", dest="max_support", type=int,
                        default=64)

    sp = sub.add_parser("ratefit", help="fit decay exponents over an n grid")
    common(sp)
    sp.add_argument("--m-max", dest="m_max", type=int, default=None)
    sp.add_argument("--model", dest="fit_model", default="poly-log",
                    choices=("poly-only", "poly-log"))
    sp.add_argument("--fix-log", dest="fix_log", default="auto",
                    help="'auto' pins s to the predicted log exponent, "
                         "'none' fits it, or give a number")
    return parser


def parse_argv(argv: list[str]) -> RunSpec:
    ns = _build_parser().parse_args(argv)
    kwargs = {"command": ns.command}
    for f in fields(RunSpec):
        if f.name == "command":
            continue
        if hasattr(ns, f.name):
            kwargs[f.name] = getattr(ns, f.name)
    if getattr(ns, "p", None) is not None:
        kwargs["p"] = _parse_p(ns.p)
    return RunSpec(**kwargs)


# ---------------------------------------------------------------------------
# command payloads

def _weights_of(spec: RunSpec):
    return parse_weight_spec(spec.weights)


def _run_bounds(spec: RunSpec) -> dict:
    w = _weights_of(spec)
    n_values = parse_n_spec(spec.n)
    rows = []
    if math.isinf(spec.p):
        for n in n_values:
            r = class_error_infty(w, n)
            rows.append({
                "n": n,
                "value_sq": r.value_sq,
                "truncation_bound": r.truncation_bound,
                "status": r.status,
                "terms_summed": r.terms_summed,
            })
        columns = ["n", "value_sq", "truncation_bound", "status",
                   "terms_summed"]
    else:
        for n in n_values:
            r = class_bounds(w, spec.p, n, m_max=spec.m_max)
            rows.append({
                "n": n,
                "lower_sq": r.lower_sq,
                "upper_sq": r.upper_sq,
                "status": r.status,
                "argmax_m": r.argmax_m,
                "m_scanned": r.m_scanned,
            })
        columns = ["n", "lower_sq", "upper_sq", "status", "argmax_m",
                   "m_scanned"]
    return {"rows": rows, "columns": columns}


def _run_exact(spec: RunSpec) -> dict:
    try:
        lines = Path(spec.sequence).read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        raise IOError(f"cannot read sequence file: {exc}") from exc
    entries = [float(t) for t in (line.strip() for line in lines) if t]
    x = CoefficientSequence(np.asarray(entries))
    rows = []
    for n in parse_n_spec(spec.n):
        s, e = scaled_tail_sq(x, n)
        rows.append({"n": n, "sigma_sq": math.ldexp(s, 2 * e),
                     "sigma": math.ldexp(math.sqrt(s), e),
                     "support_len": x.support_len})
    return {"rows": rows, "columns": ["n", "sigma_sq", "sigma", "support_len"]}


def _run_extremal(spec: RunSpec) -> dict:
    w = _weights_of(spec)
    seq = extremal_sequence(w, spec.p, spec.m)
    return {"entries": seq.entries.tolist(), "m": spec.m}


def _run_oracle(spec: RunSpec) -> dict:
    w = _weights_of(spec)
    cfg = OracleConfig(
        m_max=spec.m_max, iters=spec.iters, seed=spec.seed,
        max_support=spec.max_support)
    rows = []
    witnesses = {}
    for n in parse_n_spec(spec.n):
        if not math.isinf(spec.p):
            s_sq, s_wit = structure_oracle(w, spec.p, n, cfg)
            rows.append({"n": n, "engine": "structure", "value_sq": s_sq})
            witnesses[f"structure:{n}"] = s_wit.entries.tolist()
        r_sq, r_wit = random_search_oracle(w, spec.p, n, cfg)
        rows.append({"n": n, "engine": "random", "value_sq": r_sq})
        witnesses[f"random:{n}"] = r_wit.entries.tolist()
    return {"rows": rows, "columns": ["n", "engine", "value_sq"],
            "witnesses": witnesses}


def _run_certify(spec: RunSpec) -> tuple[dict, int]:
    w = _weights_of(spec)
    cfg = OracleConfig(
        m_max=spec.m_max, iters=spec.iters, seed=spec.seed,
        max_support=spec.max_support)
    reports = [certify(w, spec.p, n, cfg) for n in parse_n_spec(spec.n)]
    payload = {"reports": [r.as_dict() for r in reports]}
    code = EXIT_OK if all(r.passed for r in reports) else EXIT_CERTIFY_FAIL
    return payload, code


def _run_ratefit(spec: RunSpec) -> dict:
    w = _weights_of(spec)
    n_values = parse_n_spec(spec.n)
    samples = class_error_samples(w, spec.p, n_values, m_max=spec.m_max)

    prediction = None
    if not isinstance(w, TabulatedWeights):
        try:
            prediction = predicted_rate(w, spec.p)
        except UnsupportedFamilyError:
            prediction = None

    if spec.fix_log == "none":
        fixed = None
    elif spec.fix_log == "auto":
        fixed = prediction.log_exponent if prediction is not None else None
    else:
        try:
            fixed = float(spec.fix_log)
        except ValueError:
            raise ValueError(
                f"--fix-log must be 'auto', 'none', or a number, "
                f"got {spec.fix_log!r}") from None

    fit = fit_rate(samples, spec.fit_model, fixed_log_exponent=fixed)
    payload = {
        "samples": [{"n": n, "sigma": s} for n, s in samples],
        "fit": {
            "poly_exponent": fit.poly_exponent,
            "log_exponent": fit.log_exponent,
            "intercept": fit.intercept,
            "residual_rms": fit.residual_rms,
        },
        "prediction": None,
        "envelope": None,
    }
    if prediction is not None:
        payload["prediction"] = {
            "poly_exponent": prediction.poly_exponent,
            "log_exponent": prediction.log_exponent,
            "valid": prediction.valid,
            "validity_condition": prediction.validity_condition,
        }
        if prediction.valid:
            c_min, c_max = ratio_envelope(samples, prediction)
            payload["envelope"] = {
                "c_min": c_min, "c_max": c_max, "ratio": c_max / c_min}
    return payload


# ---------------------------------------------------------------------------
# rendering

def _csv_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return str(v).lower()
    if isinstance(v, float):
        return _fmt_float(v)
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


def render(spec: RunSpec, payload: dict) -> str:
    if spec.fmt == "json":
        doc = {"command": spec.command, "params": _params_dict(spec)}
        doc.update(payload)
        return json.dumps(_jsonable(doc), sort_keys=True,
                          separators=(",", ":"), allow_nan=False) + "\n"

    if spec.command == "extremal":
        line = ",".join(_fmt_float(v) for v in payload["entries"])
        return line + "\n"
    if spec.command == "certify":
        rows = payload["reports"]
        columns = ["n", "bound_status", "scan_lower_sq", "scan_upper_sq",
                   "structure_sq", "random_sq", "passed"]
        rows = [{c: r[c] for c in columns} for r in rows]
    elif spec.command == "ratefit":
        return _render_ratefit_flat(spec, payload)
    else:
        rows, columns = payload["rows"], payload["columns"]
    if spec.fmt == "csv":
        return _render_rows_csv(rows, columns)
    return _render_rows_table(rows, columns)


def _render_ratefit_flat(spec: RunSpec, payload: dict) -> str:
    fit = payload["fit"]
    pred = payload["prediction"]
    env = payload["envelope"]
    row = {
        "poly_exponent": fit["poly_exponent"],
        "log_exponent": fit["log_exponent"],
        "intercept": fit["intercept"],
        "residual_rms": fit["residual_rms"],
        "predicted_poly": pred["poly_exponent"] if pred else None,
        "predicted_log": pred["log_exponent"] if pred else None,
        "prediction_valid": pred["valid"] if pred else None,
        "envelope_c_min": env["c_min"] if env else None,
        "envelope_c_max": env["c_max"] if env else None,
    }
    columns = list(row)
    if spec.fmt == "csv":
        return _render_rows_csv([row], columns)
    return _render_rows_table([row], columns)


def _params_dict(spec: RunSpec) -> dict:
    params = {"format": spec.fmt}
    if spec.weights is not None:
        params["weights"] = spec.weights
    if spec.p is not None:
        params["p"] = spec.p
    if spec.n is not None:
        params["n"] = spec.n
    if spec.m is not None:
        params["m"] = spec.m
    if spec.m_max is not None:
        params["m_max"] = spec.m_max
    if spec.sequence is not None:
        params["sequence"] = spec.sequence
    if spec.command in ("oracle", "certify"):
        params.update(seed=spec.seed, iters=spec.iters,
                      max_support=spec.max_support)
    if spec.command == "ratefit":
        params.update(model=spec.fit_model, fix_log=spec.fix_log)
    return params


def run(spec: RunSpec) -> tuple[str, int]:
    """Execute a spec; returns (artifact text, exit code)."""
    code = EXIT_OK
    if spec.command == "bounds":
        payload = _run_bounds(spec)
    elif spec.command == "exact":
        payload = _run_exact(spec)
    elif spec.command == "extremal":
        payload = _run_extremal(spec)
    elif spec.command == "oracle":
        payload = _run_oracle(spec)
    elif spec.command == "certify":
        payload, code = _run_certify(spec)
    elif spec.command == "ratefit":
        payload = _run_ratefit(spec)
    else:
        raise ValueError(f"unknown command {spec.command!r}")
    return render(spec, payload), code


def _fail(kind: str, exc: Exception, code: int) -> int:
    print(f"nterm: error={kind} detail={str(exc)!r}", file=sys.stderr)
    return code


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        spec = parse_argv(list(argv))
    except SystemExit as exc:
        return EXIT_BAD_SPEC if exc.code else EXIT_OK
    except ValueError as exc:
        return _fail("domain", exc, EXIT_DOMAIN)

    try:
        text, code = run(spec)
    except (WeightSpecError, WeightValidationError) as exc:
        return _fail("weight-spec", exc, EXIT_BAD_SPEC)
    except (ValueError, UnsupportedFamilyError) as exc:
        return _fail("domain", exc, EXIT_DOMAIN)
    except OSError as exc:
        return _fail("io", exc, EXIT_IO)

    try:
        if spec.output is not None:
            Path(spec.output).write_text(text, encoding="utf-8")
        else:
            sys.stdout.write(text)
    except OSError as exc:
        return _fail("io", exc, EXIT_IO)
    return code


if __name__ == "__main__":
    sys.exit(main())
