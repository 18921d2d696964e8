"""A 50-digit reference for the cumulative-weight table, for tests only.

The weights are evaluated from their closed-form definitions in mpmath
(a tabulated model contributes its float64 values exactly), and W_m, W_m**-2
and log W_m are formed from them at 50 significant digits.  Nothing here
shares arithmetic with ``nterm.bounds``, so a comparison against it checks
the float path and the log-domain path, weight evaluation included.
"""

from __future__ import annotations

import mpmath
import numpy as np

from nterm import (
    ConstantWeights,
    LogPowerWeights,
    PowLogWeights,
    TabulatedWeights,
)

DIGITS = 50


def weights(w, M: int) -> list:
    """w_1..w_M of a model as mpmath numbers."""
    with mpmath.workdps(DIGITS):
        j = [mpmath.mpf(k) for k in range(1, M + 1)]
        if isinstance(w, ConstantWeights):
            return [mpmath.mpf(1)] * M
        if isinstance(w, LogPowerWeights):
            return [(1 + mpmath.log(k)) ** w.beta for k in j]
        if isinstance(w, PowLogWeights):
            out, top = [], mpmath.mpf(0)
            for k in j:
                top = max(top, k ** w.alpha * mpmath.log(k + 1, 2) ** w.beta)
                out.append(top)
            return out
        if isinstance(w, TabulatedWeights):
            return [mpmath.mpf(float(v)) for v in w.values(M)]
    raise TypeError(f"no reference for {type(w).__name__}")


def table(w, p: float, M: int) -> dict[str, list]:
    """Weights and W_m, W_m**-2, log W_m for m = 1..M.

    Keyed "w", "W", "inv_sq" and "log_W"; the values are mpmath numbers.
    """
    with mpmath.workdps(DIGITS):
        p = mpmath.mpf(p)
        w_vals = weights(w, M)
        W, inv_sq, log_W = [], [], []
        total = mpmath.mpf(0)
        for v in w_vals:
            total += v ** p
            log_total = mpmath.log(total)
            W.append(mpmath.exp(log_total / p))
            inv_sq.append(mpmath.exp(-2 * log_total / p))
            log_W.append(log_total / p)
        return {"w": w_vals, "W": W, "inv_sq": inv_sq, "log_W": log_W}


def rel_errors(values, ref) -> np.ndarray:
    """|value - ref| / |ref| for each pair, as float64."""
    with mpmath.workdps(DIGITS):
        return np.array([float(abs(mpmath.mpf(float(v)) - r) / abs(r))
                         for v, r in zip(values, ref)])


def abs_errors(values, ref) -> np.ndarray:
    """|value - ref| for each pair, as float64."""
    with mpmath.workdps(DIGITS):
        return np.array([float(abs(mpmath.mpf(float(v)) - r))
                         for v, r in zip(values, ref)])
