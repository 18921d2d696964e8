"""Correctness checks on the JSON artifacts the workloads produce.

Every artifact must validate against ``schemas/output.json``.  Invocations
that name a check are also compared with a reference computed here without
``nterm``.  References depend only on the run's inputs, so each is computed
once per run and reused for every pass.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import jsonschema
import mpmath
import numpy as np

from workloads import Inputs, Invocation

# const p=1 envelopes: the direct quotient matched the program to 1 ulp
ENVELOPE_REL_TOL = 1e-12
# logpow p=0.5: prefix sums of up to 1M terms; float64 powers after the sum
TABLE_REL_TOL = 1e-9
# the ratefit p=inf samples use the program's default tail_tol of 1e-12
TAIL_ABS_TOL = 1e-12
# exact sigma_sq against an exactly rounded sum: a few ulp
EXACT_REL_TOL = 1e-13
# certify's own containment tolerance, applied to the oracle command
ORACLE_TOL = 1e-9


def _close(got, want: float, rel: float) -> bool:
    return isinstance(got, (int, float)) and abs(got - want) <= rel * abs(want)


def _trigamma(n: int) -> float:
    """sum_{j > n} j**-2 = psi_1(n + 1)."""
    with mpmath.workdps(40):
        return float(mpmath.psi(1, n + 1))


class Checker:
    """Validates artifacts of one run; ``problems`` lists what is wrong."""

    def __init__(self, schema_path: Path, inputs: Inputs):
        schema = json.loads(schema_path.read_text(encoding="utf-8"))
        self._validator = jsonschema.Draft7Validator(schema)
        self._inputs = inputs
        self._refs: dict = {}

    def problems(self, inv: Invocation, text: str) -> list[str]:
        try:
            doc = json.loads(text)
        except ValueError as exc:
            return [f"output is not JSON: {exc}"]
        error = next(iter(self._validator.iter_errors(doc)), None)
        if error is not None:
            return [f"schema: {error.message}"]
        if inv.check is None:
            return []
        return getattr(self, "_" + inv.check)(doc)

    def _ref(self, key, compute):
        if key not in self._refs:
            self._refs[key] = compute()
        return self._refs[key]

    def _const_p1_bounds(self, doc) -> list[str]:
        """W_m = m, so the envelopes are max (m-n+1)/m**2 and (m-n)/m**2."""
        out = []
        for row in doc["rows"]:
            n, top = row["n"], row["m_scanned"]

            def envelopes():
                m = np.arange(n, top + 1, dtype=np.float64)
                return (float(np.max((m - n) / (m * m))),
                        float(np.max((m - n + 1) / (m * m))))

            lower, upper = self._ref(("const_p1", n, top), envelopes)
            if not (row["status"] == "attained"
                    and _close(row["lower_sq"], lower, ENVELOPE_REL_TOL)
                    and _close(row["upper_sq"], upper, ENVELOPE_REL_TOL)):
                out.append(f"const p=1 n={n}: got {row['lower_sq']!r}, "
                           f"{row['upper_sq']!r}, want {lower!r}, {upper!r}")
        return out

    def _ordered_bounds(self, doc) -> list[str]:
        return [f"n={row['n']}: lower_sq {row['lower_sq']!r} above "
                f"upper_sq {row['upper_sq']!r}"
                for row in doc["rows"]
                if isinstance(row["lower_sq"], (int, float))
                and isinstance(row["upper_sq"], (int, float))
                and not 0 <= row["lower_sq"] <= row["upper_sq"]]

    def _logpow_half_ratefit(self, doc) -> list[str]:
        """sigma_n = sqrt(max (m-n+1) / W_m**2), m in [n, max(1024, 64n)]."""
        p = 0.5
        top = max(max(1024, 64 * s["n"]) for s in doc["samples"])

        def inv_sq():
            j = np.arange(1, top + 1, dtype=np.float64)
            sums = np.cumsum(((1.0 + np.log(j)) ** p).astype(np.longdouble))
            return sums.astype(np.float64) ** (-2.0 / p)

        winv_sq = self._ref(("logpow_half", top), inv_sq)
        out = []
        for s in doc["samples"]:
            n = s["n"]
            m_hi = max(1024, 64 * n)
            m = np.arange(n, m_hi + 1, dtype=np.float64)
            want = math.sqrt(float(np.max((m - n + 1) * winv_sq[n - 1:m_hi])))
            if not _close(s["sigma"], want, TABLE_REL_TOL):
                out.append(f"logpow p=0.5 n={n}: sigma {s['sigma']!r}, "
                           f"want {want!r}")
        return out

    def _certify_passed(self, doc) -> list[str]:
        return [f"certify n={r['n']} failed: {r['checks']}"
                for r in doc["reports"] if r["passed"] is not True]

    def _oracle_order(self, doc) -> list[str]:
        by_n: dict = {}
        for row in doc["rows"]:
            by_n.setdefault(row["n"], {})[row["engine"]] = row["value_sq"]
        return [f"oracle n={n}: random {v['random']!r} above structure "
                f"{v['structure']!r}"
                for n, v in by_n.items()
                if not v["random"] <= v["structure"] + ORACLE_TOL]

    def _trigamma_bounds(self, doc) -> list[str]:
        out = []
        for row in doc["rows"]:
            n = row["n"]
            want = self._ref(("trigamma", n), lambda: _trigamma(n))
            bound = row["truncation_bound"]
            if not (row["status"] == "converged"
                    and isinstance(row["value_sq"], float)
                    and isinstance(bound, float)
                    and abs(row["value_sq"] - want) <= bound):
                out.append(f"p=inf n={n}: value_sq {row['value_sq']!r}, "
                           f"want {want!r} within {bound!r}")
        return out

    def _trigamma_ratefit(self, doc) -> list[str]:
        out = []
        for s in doc["samples"]:
            n = s["n"]
            want = self._ref(("trigamma", n), lambda: _trigamma(n))
            if not abs(s["sigma"] ** 2 - want) <= TAIL_ABS_TOL:
                out.append(f"p=inf ratefit n={n}: sigma**2 "
                           f"{s['sigma'] ** 2!r}, want {want!r}")
        return out

    def _exact_fsum(self, doc) -> list[str]:
        def squares():
            text = Path(self._inputs.sequence).read_text(encoding="utf-8")
            a = np.sort(np.abs(np.array(text.split(), dtype=np.float64)))
            return a * a

        sq = self._ref("sequence_squares", squares)
        out = []
        for row in doc["rows"]:
            n = row["n"]
            want = self._ref(("fsum", n), lambda: math.fsum(
                sq[:max(sq.size - n, 0)].tolist()))
            if not (row["support_len"] == sq.size
                    and _close(row["sigma_sq"], want, EXACT_REL_TOL)
                    and _close(row["sigma"], math.sqrt(want), EXACT_REL_TOL)):
                out.append(f"exact n={n}: sigma_sq {row['sigma_sq']!r}, "
                           f"want {want!r}")
        return out
