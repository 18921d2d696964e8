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


def powlog_tail_sq(alpha: float, beta: float, n: int, K: int = 1000):
    """sum_{j > n} j**(-2 alpha) log2(j+1)**(-2 beta), to about 30 digits.

    For 2 alpha > 1, or 2 alpha = 1 with 2 beta > 1, and beta >= 0, where
    these are the powlog terms.  Terms n+1..K are summed directly.  The rest
    is the integral from K + 1/2 with the Euler-Maclaurin midpoint
    corrections g'/24 - 7 g'''/5760 (the next one is below 1e-20 at
    K = 1000).  The integral is taken in u = ln x, where the integrand is
    e**(-c u) l2(u)**(-2 beta) with c = 2 alpha - 1: by quadrature over
    [ln(K + 1/2), 200], and in closed form past u = 200, where
    l2(u) = u log2(e) to 80 digits.  Quadrature of the raw integrand over
    an infinite range is not used: at 2 alpha = 1 it is off by up to 0.1.
    """
    with mpmath.workdps(DIGITS):
        alpha, beta = mpmath.mpf(alpha), mpmath.mpf(beta)
        c = 2 * alpha - 1
        log2e = 1 / mpmath.log(2)

        def g(x):
            return x ** (-2 * alpha) * mpmath.log(x + 1, 2) ** (-2 * beta)

        def h(u):
            l2 = (u + mpmath.log1p(mpmath.exp(-u))) * log2e
            return mpmath.exp(-c * u) * l2 ** (-2 * beta)

        head = mpmath.fsum(g(mpmath.mpf(j)) for j in range(n + 1, K + 1))
        x0 = mpmath.mpf(K) + mpmath.mpf(1) / 2
        a = mpmath.log(x0)
        body = mpmath.quad(h, [a, 20, 50, 100, 200])
        if c == 0:
            far = log2e ** (-2 * beta) * mpmath.mpf(200) ** (1 - 2 * beta) \
                / (2 * beta - 1)
        else:
            # int_200^oo e**(-c u) u**(-2b) du = c**(2b-1) Gamma(1-2b, 200c)
            far = log2e ** (-2 * beta) * c ** (2 * beta - 1) \
                * mpmath.gammainc(1 - 2 * beta, 200 * c)
        em = mpmath.diff(g, x0, 1) / 24 - 7 * mpmath.diff(g, x0, 3) / 5760
        return head + body + far + em
