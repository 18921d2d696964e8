"""References for tests only: the cumulative-weight table and tail sums.

The weights are evaluated from their closed-form definitions in mpmath
(a tabulated model contributes its float64 values exactly), and W_m, W_m**-2
and log W_m are formed from them at 50 significant digits.  Nothing here
shares arithmetic with ``nterm.bounds``, so a comparison against it checks
the float path and the log-domain path, weight evaluation included.

``structure_sq`` is the largest squared tail error over the two witness
families of ``nterm.oracle.structure_oracle``, from that table.

``envelope_max`` is the vertex maximum of either envelope over a range of
m, from that table.

``powlog_plateau_sq`` is the p = 2 limit c**-2 of a powlog family that
ends on a plateau c.

``infty_witness_sq`` is a lower bound on the squared worst-case error at
any p from the weights alone: the truncated p = oo witness.

``scaled_tail_sq`` is the exact tail sum of one n by a sort and one
``math.fsum`` over the whole tail.

``prefix_sums_p`` is the float table as one unblocked Sum2 pass over all
terms: what the blocked sum of ``build_table`` must reproduce bit for bit.
"""

from __future__ import annotations

import math

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


def structure_sq(w, p: float, n_values, m_max: int) -> list:
    """For each n: max (k - n) W_k**-2 over k in [n + 1, m_max], and at
    p > 2 also (V_m**-r + w_{m+1}**-r)**(2/r), r = 2p/(p-2),
    V_m = W_m (m-n)**-1/2, over m in [n + 1, m_max - 1] with
    W_m**p <= (m-n) w_{m+1}**p."""
    ref = table(w, p, m_max)
    out = []
    with mpmath.workdps(DIGITS):
        p = mpmath.mpf(p)
        for n in n_values:
            best = max((k - n) * ref["inv_sq"][k - 1]
                       for k in range(n + 1, m_max + 1))
            if p > 2:
                r = 2 * p / (p - 2)
                for m in range(n + 1, m_max):
                    W, w_next = ref["W"][m - 1], ref["w"][m]
                    if W ** p <= (m - n) * w_next ** p:
                        V = W / mpmath.sqrt(m - n)
                        best = max(best,
                                   (V ** -r + w_next ** -r) ** (2 / r))
            out.append(best)
    return out


def envelope_max(ref: dict, n: int, m_lo: int, m_hi: int, delta: int):
    """max (m - n + delta) W_m**-2 over m in [m_lo, m_hi], from a ``table``
    reaching m_hi: the vertex maximum, at 50 digits."""
    with mpmath.workdps(DIGITS):
        return max((m - n + delta) * ref["inv_sq"][m - 1]
                   for m in range(m_lo, m_hi + 1))


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


def tail_integral(alpha: float, beta: float, x0):
    """Integral of x**(-2 alpha) log2(x+1)**(-2 beta) over [x0, oo).

    Taken in u = ln x, where the integrand is e**(-c u) l2(u)**(-2 beta)
    with c = 2 alpha - 1 and l2(u) = log2(e**u + 1): by quadrature over
    [ln x0, 200], in closed form past u = 200, where l2(u) = u log2(e) to
    80 digits.  For c > 0, or c = 0 with 2 beta > 1, and ln x0 < 20.  The
    quadrature runs on the integrand divided by its value at ln x0, since
    mpmath's tolerance is absolute, with breakpoints close to ln x0 for a
    fast decay.  Quadrature of the raw integrand over an infinite range is
    not used: at 2 alpha = 1 it is off by up to 0.1.
    """
    with mpmath.workdps(DIGITS):
        alpha, beta = mpmath.mpf(alpha), mpmath.mpf(beta)
        c = 2 * alpha - 1
        log2e = 1 / mpmath.log(2)
        a = mpmath.log(mpmath.mpf(x0))

        def l2(u):
            return (u + mpmath.log1p(mpmath.exp(-u))) * log2e

        def h(u):
            return mpmath.exp(-c * (u - a)) * (l2(u) / l2(a)) ** (-2 * beta)

        near = [a + mpmath.mpf(1) / 8, a + 2]
        body = mpmath.quad(h, [a] + near + [20, 50, 100, 200]) \
            * mpmath.exp(-c * a) * l2(a) ** (-2 * beta)
        if c == 0:
            far = log2e ** (-2 * beta) * mpmath.mpf(200) ** (1 - 2 * beta) \
                / (2 * beta - 1)
        else:
            # int_200^oo e**(-c u) u**(-2b) du = c**(2b-1) Gamma(1-2b, 200c)
            far = log2e ** (-2 * beta) * c ** (2 * beta - 1) \
                * mpmath.gammainc(1 - 2 * beta, 200 * c)
        return body + far


def powlog_tail_sq(alpha: float, beta: float, n: int, K: int = 1000):
    """sum_{j > n} j**(-2 alpha) log2(j+1)**(-2 beta), to about 30 digits.

    For 2 alpha > 1, or 2 alpha = 1 with 2 beta > 1, and beta >= 0, where
    these are the powlog terms.  Terms n+1..max(K, 2n) are summed directly.
    The rest is ``tail_integral`` from max(K, 2n) + 1/2 with the
    Euler-Maclaurin midpoint corrections g'/24 - 7 g'''/5760 (the next one
    is below 1e-20 from K = 1000 on).
    """
    K = max(K, 2 * n)
    with mpmath.workdps(DIGITS):
        alpha, beta = mpmath.mpf(alpha), mpmath.mpf(beta)

        def g(x):
            return x ** (-2 * alpha) * mpmath.log(x + 1, 2) ** (-2 * beta)

        head = mpmath.fsum(g(mpmath.mpf(j)) for j in range(n + 1, K + 1))
        x0 = mpmath.mpf(K) + mpmath.mpf(1) / 2
        em = mpmath.diff(g, x0, 1) / 24 - 7 * mpmath.diff(g, x0, 3) / 5760
        return head + tail_integral(alpha, beta, x0) + em


def powlog_plateau_sq(alpha: float, beta: float):
    """c**-2 for the plateau c = max over integers i >= 1 of
    i**alpha * log2(i+1)**beta, for alpha < 0, to about 50 digits.

    In u = ln i the logarithm of the formula, alpha u + beta ln log2(e**u
    + 1), is concave for beta > 0, so the integer maximum sits next to the
    real one, the root of its derivative; for beta <= 0 it is at i = 1.
    """
    with mpmath.workdps(DIGITS):
        alpha, beta = mpmath.mpf(alpha), mpmath.mpf(beta)
        candidates = [mpmath.mpf(1)]
        if beta > 0:
            def slope(u):
                e = mpmath.exp(u)
                return alpha + beta * e / ((e + 1) * mpmath.log(e + 1))

            x = mpmath.exp(mpmath.findroot(slope, -beta / alpha))
            candidates += [max(mpmath.floor(x), 1), mpmath.ceil(x)]
        c = max(i ** alpha * mpmath.log(i + 1, 2) ** beta
                for i in candidates)
        return c ** -2


def scaled_tail_sq(x, n: int) -> tuple[float, int]:
    """(S, e) with sigma_n(x)**2 = S * 2**(2e), one n at a time.

    The tail past the n largest magnitudes is scaled by 2**-e, with e the
    binary exponent of its largest entry, squared, and summed by
    ``math.fsum``.  n at or beyond the support gives (0.0, 0).
    """
    a = np.sort(np.abs(np.asarray(x, dtype=np.float64)))  # ascending
    keep = a.size - int(n)
    if keep <= 0:
        return 0.0, 0
    e = math.frexp(float(a[keep - 1]))[1]
    tail = np.ldexp(a[:keep], -e)
    return math.fsum((tail * tail).tolist()), e


def prefix_sums_p(w, p: float, M: int) -> np.ndarray:
    """w_1**p + ... + w_m**p for m = 1..M by Sum2 (Ogita, Rump & Oishi
    2005) over the whole array at once: the running sum s, each step's
    TwoSum error e_k of s_{k-1} + x_k, and s plus the running sum of e."""
    x = w.values(M) ** p
    s = np.cumsum(x)
    prev = np.concatenate(([0.0], s[:-1]))
    d = s - prev
    return s + np.cumsum((prev - (s - d)) + (x - d))


def infty_witness_sq(w, p: float, n: int,
                     K_max: int = 2 ** 16) -> tuple[float, int]:
    """(S, K): the largest K**(-2/p) sum_{n<j<=K} w_j**-2 over K in
    (n, K_max], and its K.

    x_j = K**(-1/p) / w_j for j <= K is a unit vector of the weighted lp
    ball, and its squared n-term error is that value, since the weights
    never decrease.  The K is chosen on float64 prefix sums, and its value
    is summed again by ``math.fsum``, so what is returned is the witness's
    value, rounded.  n >= K_max gives (0.0, 0).
    """
    if n >= K_max:
        return 0.0, 0
    inv_sq = w.values(K_max) ** -2.0
    K = np.arange(n + 1, K_max + 1, dtype=np.float64)
    best = int(np.argmax(np.cumsum(inv_sq[n:]) * K ** (-2.0 / p)))
    K_best = n + 1 + best
    return (math.fsum(inv_sq[n:K_best].tolist())
            * float(K_best) ** (-2.0 / p), K_best)
