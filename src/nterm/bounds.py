"""Worst-case n-term error bounds for weighted lp unit balls.

For 0 < p < oo the squared worst-case error over the unit ball is squeezed
between ``max_m (m-n) / W_m**2`` and ``max_m (m-n+1) / W_m**2``, where
``W_m = (w_1**p + ... + w_m**p)**(1/p)``.  ``class_bounds`` scans both
envelopes over m in [n, m_max] and classifies how the supremum behaves:

* ``attained``            the maximum sits at a finite index and the scan
                          confirms the envelope keeps falling past it;
* ``limit-at-infinity``   the envelope increases towards a finite limit,
                          which is estimated by extrapolation along a
                          geometric index ladder;
* ``divergent``           the envelope grows without bound (the class error
                          is infinite for every n);
* ``truncated-unknown``   the scan ended before any of the above could be
                          confirmed.

For p = oo the squared error equals the tail sum of w_j**-2.
``class_error_infty`` sums a head and closes the tail with an integral,
evaluated by an exp-sinh (double-exponential) rule in numpy; at 2 alpha = 1
the rule integrates the difference from the leading u**(-2 beta) term, which
is added in closed form.  The reported ``truncation_bound`` is the
Euler-Maclaurin remainder bound plus the rule's error estimate.

Squared errors are the internal currency throughout; square roots are taken
only at presentation boundaries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .weights import (
    ConstantWeights,
    LogPowerWeights,
    PowLogWeights,
    WeightModel,
)

__all__ = [
    "CumulativeWeightTable",
    "BoundResult",
    "InftyTailResult",
    "TableTruncationError",
    "build_table",
    "default_m_max",
    "class_bounds",
    "class_bounds_grid",
    "class_error_infty",
    "sandwich_width",
    "STATUS_ATTAINED",
    "STATUS_LIMIT",
    "STATUS_DIVERGENT",
    "STATUS_TRUNCATED",
    "STATUS_CONVERGED",
]

STATUS_ATTAINED = "attained"
STATUS_LIMIT = "limit-at-infinity"
STATUS_DIVERGENT = "divergent"
STATUS_TRUNCATED = "truncated-unknown"
STATUS_CONVERGED = "converged"

# switch the prefix sums to log-domain accumulation before w_j**p overflows
LOG_DOMAIN_THRESHOLD = 700.0
# trailing log-log slope above which a scanned envelope counts as divergent
SLOPE_EPS = 0.01
_EXPONENT_EPS = 1e-12
# exp-sinh rule for the p = oo tail integral (Takahasi & Mori 1974)
_DE_T_MAX = 6.0          # nodes t in [-6, 6] of u = ln X + exp(pi/2 sinh t)
_DE_LEVELS = 8           # step halvings after h = 1: at most 3073 nodes
_DE_SAFETY = 10.0        # error = safety * |difference of the last levels|
_DE_ROUNDING = 64 * float(np.finfo(np.float64).eps)   # plus this * |value|
_LOG2E = 1.0 / math.log(2.0)


class TableTruncationError(ValueError):
    """A tabulated model is shorter than the requested table length."""

    def __init__(self, requested: int, available: int):
        super().__init__(
            f"tabulated weights end at index {available}, "
            f"requested prefix sums up to {requested}")
        self.requested = requested
        self.available = available


@dataclass(frozen=True, eq=False)
class CumulativeWeightTable:
    """Prefix sums of w_j**p as float64, or their logarithms.

    ``sums_p[k]`` is w_1**p + ... + w_{k+1}**p: the terms are float64, the
    running sum is accumulated in long double and rounded once to float64.
    It is empty in log-domain mode, where ``log_sums_p`` holds the
    logarithms instead; that mode is taken when a term or the sum would
    leave the float64 range.
    """

    p: float
    sums_p: np.ndarray
    log_sums_p: np.ndarray | None
    log_domain: bool
    length: int

    def W(self, m: int) -> float:
        """Cumulative weight W_m."""
        self._check_index(m)
        if self.log_domain:
            return float(np.exp(self.log_sums_p[m - 1] / self.p))
        return float(self.sums_p[m - 1] ** (1.0 / self.p))

    def log_W(self, m: int) -> float:
        return float(self.log_W_slice(m, m)[0])

    def log_W_slice(self, m_lo: int, m_hi: int) -> np.ndarray:
        """log W_m for m in [m_lo, m_hi] as a float64 array."""
        self._check_index(m_lo)
        self._check_index(m_hi)
        if self.log_domain:
            return self.log_sums_p[m_lo - 1:m_hi] / self.p
        return np.log(self.sums_p[m_lo - 1:m_hi]) / self.p

    def inv_sq(self, m: int) -> float:
        """W_m**-2."""
        return float(self.inv_sq_slice(m, m)[0])

    def inv_sq_slice(self, m_lo: int, m_hi: int) -> np.ndarray:
        """W_m**-2 for m in [m_lo, m_hi] as a float64 array."""
        self._check_index(m_lo)
        self._check_index(m_hi)
        if self.log_domain:
            seg = self.log_sums_p[m_lo - 1:m_hi]
            return np.exp((-2.0 / self.p) * seg)
        return self.sums_p[m_lo - 1:m_hi] ** (-2.0 / self.p)

    def _check_index(self, m: int) -> None:
        if not 1 <= m <= self.length:
            raise ValueError(
                f"table covers m in [1, {self.length}], got {m}")


def build_table(w: WeightModel, p: float, M: int) -> CumulativeWeightTable:
    """Tabulate prefix p-th power sums of the weights up to index M."""
    if not 0 < p < math.inf:
        raise ValueError(f"p must be finite and positive, got {p}")
    if M < 1:
        raise ValueError(f"M must be >= 1, got {M}")
    M = int(M)
    known = w.known_length
    if known is not None and known < M:
        raise TableTruncationError(requested=M, available=known)
    vals = w.values(M)
    logs = np.log(vals)
    top = float(logs.max())
    if not math.isfinite(top):
        j = int(np.argmin(np.isfinite(logs))) + 1
        raise ValueError(f"weight w_{j} is not finite")
    if p * top <= LOG_DOMAIN_THRESHOLD:
        # values() hands out a fresh array, so the powers may overwrite it
        np.power(vals, p, out=vals)
        sums = np.cumsum(vals, dtype=np.longdouble)
        # every term is below e**700, but their sum may pass float64's range
        if sums[-1] <= np.finfo(np.float64).max:
            return CumulativeWeightTable(
                p=float(p), sums_p=sums.astype(np.float64), log_sums_p=None,
                log_domain=False, length=M)
    log_sums = np.logaddexp.accumulate(p * logs)
    return CumulativeWeightTable(
        p=float(p), sums_p=np.empty(0), log_sums_p=log_sums,
        log_domain=True, length=M)


@dataclass(frozen=True)
class BoundResult:
    """Lower/upper squared worst-case error with attainment classification.

    ``lower_sq``/``upper_sq`` are the class values (infinite when divergent,
    both equal to the extrapolated limit when the supremum is approached at
    infinity).  ``scan_lower_sq``/``scan_upper_sq`` always hold the finite
    suprema found over the scanned index range; they are what a finite
    witness or oracle can be compared against.  ``argmax_m`` is the index
    where the upper envelope peaks, when it does.
    """

    n: int
    lower_sq: float
    upper_sq: float
    argmax_m: int | None
    status: str
    limit_estimate: float | None
    m_scanned: int
    scan_lower_sq: float
    scan_upper_sq: float


def default_m_max(n: int) -> int:
    return max(1024, 64 * int(n))


def _extrapolate_limit(t: np.ndarray, m_lo: int, m_eff: int) -> float | None:
    """Aitken step on t at m_eff/4, m_eff/2, m_eff (geometric ladder)."""
    m0, m1, m2 = m_eff // 4, m_eff // 2, m_eff
    if m0 < m_lo:
        return None
    t0, t1, t2 = (float(t[m - m_lo]) for m in (m0, m1, m2))
    d1, d2 = t1 - t0, t2 - t1
    denom = d2 - d1
    if abs(denom) < 1e-300:
        return t2
    limit = t2 - d2 * d2 / denom
    if not math.isfinite(limit) or limit < 0:
        return t2
    return limit


def _loglog_slope(j: np.ndarray, t: np.ndarray) -> float | None:
    """Least-squares slope of log t vs log j; None below 8 points or when
    a term is not positive."""
    if t.size < 8 or np.any(t <= 0):
        return None
    x = np.log(j)
    y = np.log(t)
    x = x - x.mean()
    denom = float(np.dot(x, x))
    if denom == 0:
        return None
    return float(np.dot(x, y) / denom)


def class_bounds(
    w: WeightModel,
    p: float,
    n: int,
    m_max: int | None = None,
    *,
    table: CumulativeWeightTable | None = None,
    slope_eps: float = SLOPE_EPS,
) -> BoundResult:
    """Scan the two worst-case envelopes over m in [n, m_max] and classify.

    The scan starts at max(n, 1) since W_m is defined for m >= 1; the m = n
    term of the lower envelope is zero anyway.  A reusable ``table`` may be
    passed when several n share one weight model; it must cover m_max.
    """
    if not 0 < p < math.inf:
        raise ValueError(f"p must be finite and positive, got {p}")
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    n = int(n)
    if m_max is None:
        m_max = default_m_max(n)
    m_max = int(m_max)
    if m_max < n + 1:
        raise ValueError(f"m_max must be >= n + 1, got {m_max} < {n + 1}")

    known = w.known_length
    m_eff = m_max if known is None else min(m_max, known)
    if m_eff < max(n, 1):
        return BoundResult(
            n=n, lower_sq=0.0, upper_sq=0.0, argmax_m=None,
            status=STATUS_TRUNCATED, limit_estimate=None, m_scanned=0,
            scan_lower_sq=0.0, scan_upper_sq=0.0)
    table_truncated = m_eff < m_max

    if table is None or table.length < m_eff or table.p != p:
        table = build_table(w, p, m_eff)

    m_lo = max(n, 1)
    marr = np.arange(m_lo, m_eff + 1, dtype=np.float64)
    winv_sq = table.inv_sq_slice(m_lo, m_eff)
    t_up = (marr - n + 1.0) * winv_sq
    t_low = (marr - n) * winv_sq

    i_up = int(np.argmax(t_up))
    m_star = m_lo + i_up
    scan_upper = float(t_up[i_up])
    scan_lower = float(t_low.max())

    window = max(64, m_star // 4)
    trailing_confirmed = (
        t_up.size > window and bool(np.all(t_up[-window:] < scan_upper)))
    tail = t_up[-min(64, t_up.size):]
    trailing_nondecreasing = bool(
        np.all(np.diff(tail) >= -1e-15 * scan_upper))

    def result(status, lower, upper, argmax=None, limit=None):
        return BoundResult(
            n=n, lower_sq=lower, upper_sq=upper, argmax_m=argmax,
            status=status, limit_estimate=limit, m_scanned=int(m_eff),
            scan_lower_sq=scan_lower, scan_upper_sq=scan_upper)

    prof = w.asymptotic_exponents
    if prof is not None:
        alpha, beta = prof
        growth = 1.0 - 2.0 * (alpha + 1.0 / p)   # power of m in t_m
        log_growth = -2.0 * beta                 # power of log m in t_m
        if growth > _EXPONENT_EPS or (
                abs(growth) <= _EXPONENT_EPS and log_growth > _EXPONENT_EPS):
            return result(STATUS_DIVERGENT, math.inf, math.inf)
        if abs(growth) <= _EXPONENT_EPS and abs(log_growth) <= _EXPONENT_EPS:
            # bounded envelope with a positive limit
            limit = _extrapolate_limit(t_up, m_lo, m_eff)
            if limit is not None and limit > scan_upper * (1 + 1e-12):
                return result(STATUS_LIMIT, limit, limit, limit=limit)
            if trailing_confirmed:
                return result(
                    STATUS_ATTAINED, scan_lower, scan_upper, argmax=m_star)
            if limit is not None and trailing_nondecreasing:
                limit = max(limit, scan_upper)
                return result(STATUS_LIMIT, limit, limit, limit=limit)
            return result(STATUS_TRUNCATED, scan_lower, scan_upper)
        # envelope decays eventually, so the supremum is attained
        if trailing_confirmed:
            return result(
                STATUS_ATTAINED, scan_lower, scan_upper, argmax=m_star)
        return result(STATUS_TRUNCATED, scan_lower, scan_upper)

    # tabulated model: scan heuristics only
    if trailing_confirmed:
        return result(STATUS_ATTAINED, scan_lower, scan_upper, argmax=m_star)
    # over the last scanned decade
    start = max(m_lo, m_eff // 10)
    slope = _loglog_slope(np.arange(start, m_eff + 1, dtype=np.float64),
                          t_up[start - m_lo:])
    if not table_truncated and slope is not None and slope >= slope_eps:
        return result(STATUS_DIVERGENT, math.inf, math.inf)
    if (not table_truncated and slope is not None and slope < slope_eps
            and trailing_nondecreasing):
        limit = _extrapolate_limit(t_up, m_lo, m_eff)
        if limit is not None:
            limit = max(limit, scan_upper)
            return result(STATUS_LIMIT, limit, limit, limit=limit)
    return result(STATUS_TRUNCATED, scan_lower, scan_upper)


def class_bounds_grid(
    w: WeightModel,
    p: float,
    n_values: Sequence[int],
    m_max: int | None = None,
) -> list[BoundResult]:
    """``class_bounds`` for every n of a grid, read from one shared table.

    The table is as long as the longest scan: ``m_max``, or the default for
    the largest n, clipped to the length of a tabulated model.
    """
    n_values = [int(n) for n in n_values]
    if not n_values:
        return []
    size = default_m_max(max(n_values)) if m_max is None else int(m_max)
    if w.known_length is not None:
        size = min(size, w.known_length)
    # a bad m_max is left to class_bounds, which names it
    table = build_table(w, p, size) if size >= 1 else None
    return [class_bounds(w, p, n, m_max, table=table) for n in n_values]


def sandwich_width(r: BoundResult) -> float:
    """upper_sq - lower_sq; guaranteed at most W_n**-2 when both are finite."""
    if not (math.isfinite(r.lower_sq) and math.isfinite(r.upper_sq)):
        raise ValueError(
            f"width undefined for non-finite bounds (status {r.status})")
    return r.upper_sq - r.lower_sq


@dataclass(frozen=True)
class InftyTailResult:
    """Tail sum of w_j**-2 past index n (the exact p = oo squared error)."""

    value_sq: float
    truncation_bound: float
    status: str
    terms_summed: int


def _tail_integrand(alpha: float, beta: float):
    def g(x: float) -> float:
        return x ** (-2.0 * alpha) * math.log2(x + 1.0) ** (-2.0 * beta)
    return g


def _tail_integrand_derivative(alpha: float, beta: float, x: float) -> float:
    g = _tail_integrand(alpha, beta)(x)
    return g * (-2.0 * alpha / x - 2.0 * beta / ((x + 1.0) * math.log(x + 1.0)))


def _tail_integral(alpha: float, beta: float, X: float,
                   epsabs: float) -> tuple[float, float]:
    """Integral of x**(-2a) log2(x+1)**(-2b) over [X, oo), and its error.

    In u = ln x the integrand is h(u) = e**(-c u) l2(u)**(-2b), with
    c = 2a - 1 and l2(u) = log2(e**u + 1).  An exp-sinh rule integrates it
    over u = ln X + exp(pi/2 sinh t), t in [-_DE_T_MAX, _DE_T_MAX], halving
    the step from 1 until two levels agree to ``epsabs`` (or to rounding),
    at most _DE_LEVELS times.  At 2a = 1 h decays only like u**(-2b), too
    slowly for any fixed t-range, so the rule integrates
    h(u) - (u log2 e)**(-2b), which decays like e**-u, and the subtracted
    term is added in closed form.  The error is _DE_SAFETY times the last
    level difference plus a rounding allowance of _DE_ROUNDING of the value.
    """
    a = math.log(X)
    boundary = abs(2.0 * alpha - 1.0) <= _EXPONENT_EPS
    c = 0.0 if boundary else 2.0 * alpha - 1.0
    # h(u) = scale * e**(-c s) (u/a)**(-2b) (1 + d(u)/u)**(-2b) with s = u - a
    # and d(u) = ln(1 + e**-u); the rule integrates the part after scale
    scale = X ** -c * (a * _LOG2E) ** (-2.0 * beta)
    closed = a * scale / (2.0 * beta - 1.0) if boundary else 0.0

    def f(t: np.ndarray) -> np.ndarray:
        s = np.exp(0.5 * np.pi * np.sinh(t))
        u = a + s
        corr = -2.0 * beta * np.log1p(np.log1p(np.exp(-u)) / u)
        m = np.expm1(corr) if boundary else np.exp(corr)
        return (np.exp(-c * s - 2.0 * beta * np.log1p(s / a)) * m
                * (0.5 * np.pi * np.cosh(t) * s))

    h = 1.0
    est = float(f(np.arange(-_DE_T_MAX, _DE_T_MAX + 0.5)).sum())
    for _ in range(_DE_LEVELS):
        h /= 2.0
        new = 0.5 * est + h * float(
            f(np.arange(-_DE_T_MAX + h, _DE_T_MAX, 2.0 * h)).sum())
        step_err = _DE_SAFETY * scale * abs(new - est)
        est = new
        value = closed + scale * est
        if step_err <= max(epsabs, _DE_ROUNDING * abs(value)):
            break
    return value, step_err + _DE_ROUNDING * abs(value)


def class_error_infty(
    w: WeightModel,
    n: int,
    *,
    tail_tol: float = 1e-12,
    max_terms: int = 10_000_000,
) -> InftyTailResult:
    """Sum w_j**-2 for j > n to a requested absolute truncation bound.

    Closed-form families sum an explicit head to index J and close the
    tail with the midpoint integral from J + 1/2, evaluated by the exp-sinh
    rule of ``_tail_integral`` (at 2 alpha = 1 with the leading term
    subtracted and added in closed form).  ``truncation_bound`` adds the
    Euler-Maclaurin bound |g'(J + 1/2)|/12 of the integral comparison and
    the rule's error: _DE_SAFETY times its last level difference plus a
    rounding allowance of _DE_ROUNDING of the integral.  Tabulated families
    sum to the end of the table and report the remainder as unknown; a
    trailing-slope check flags tables whose terms visibly decay too slowly
    to converge.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    n = int(n)

    known = w.known_length
    if known is not None:
        if n >= known:
            return InftyTailResult(0.0, math.inf, STATUS_TRUNCATED, 0)
        terms = w.values(known)[n:] ** -2.0
        j = np.arange(n + 1, known + 1, dtype=np.float64)
        # over the last half of the terms
        start = max(0, terms.size - max(8, terms.size // 2))
        slope = _loglog_slope(j[start:], terms[start:])
        if slope is not None and slope >= -1.0 + 0.05:
            return InftyTailResult(
                math.inf, math.inf, STATUS_DIVERGENT, int(terms.size))
        value = math.fsum(terms.tolist())
        return InftyTailResult(
            value, math.inf, STATUS_TRUNCATED, int(terms.size))

    prof = w.asymptotic_exponents
    if prof is None:
        raise ValueError(f"unsupported weight model {type(w).__name__}")
    alpha, beta = prof
    # below 2 alpha = 1 the power alone diverges, whatever beta; only at
    # 2 alpha in [1, 1 + _EXPONENT_EPS] does the log factor decide
    convergent = 2 * alpha > 1 + _EXPONENT_EPS or (
        2 * alpha >= 1 and 2 * beta > 1 + _EXPONENT_EPS)
    if not convergent:
        return InftyTailResult(math.inf, math.inf, STATUS_DIVERGENT, 0)

    # only PowLog reaches this point (const/logpow tails always diverge)
    assert isinstance(w, PowLogWeights)
    J = max(64, 2 * (n + 1))
    if w.beta < 0:
        # past this point the raw formula is increasing, so the running max
        # coincides with it and the integral comparison applies
        J = max(J, int(math.exp(abs(w.beta) / w.alpha)) + 2)

    def em_bound(J_: int) -> float:
        return abs(_tail_integrand_derivative(alpha, beta, J_ + 0.5)) / 12.0

    def past_plateau(J_: int) -> bool:
        raw = float(w.raw_value(np.float64(J_)))
        return raw == w.value(J_) and float(w.raw_value(np.float64(J_ + 1))) > raw

    while (em_bound(J) > 0.5 * tail_tol or not past_plateau(J)):
        if 2 * J > max_terms:
            break
        J *= 2

    head_terms = w.values(J)[n:] ** -2.0
    head = math.fsum(head_terms.tolist())
    integral, rule_err = _tail_integral(
        alpha, beta, J + 0.5, epsabs=0.25 * tail_tol)
    return InftyTailResult(
        value_sq=head + integral,
        truncation_bound=em_bound(J) + rule_err,
        status=STATUS_CONVERGED,
        terms_summed=J - n,
    )
