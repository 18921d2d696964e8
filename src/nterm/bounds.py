"""Worst-case n-term error bounds for weighted lp unit balls.

For 0 < p < oo ``class_bounds`` scans the envelopes ``(m-n) / W_m**2`` and
``(m-n+1) / W_m**2``, ``W_m = (w_1**p + ... + w_m**p)**(1/p)``, over m from
n on, up to a cap, ``m_max`` or ``default_m_max(n)`` clipped to a weight
file's length.  A flat block of m entries W_m**-1 is a unit vector, so the
lower maximum bounds the squared worst-case error from below at every p;
the upper one bounds it from above at p <= 2 only, since at p > 2 vectors
with a tail beat it.  ``_regime`` reads the exponents once, at every p,
and each finite-p regime has one status rule:

* ``attained``            at p <= 2: the maximum sits at a finite index,
                          proved by the bound below or, on a reached
                          plateau, inside the scan;
* ``limit-at-infinity``   the envelope increases towards a finite limit,
                          c**-2 on the plateau: exactly p = 2 on exponents
                          (0, 0), weights that end on a constant c;
* ``divergent``           at p > 2: the exponents show that the class error
                          is infinite for every n;
* ``truncated-unknown``   any other row: at p > 2 every one not divergent,
                          at p <= 2 one whose proof did not close by the
                          cap or whose plateau lies past the scan.

At p <= 2 the maximum is proved, not guessed.  Weights never decrease, so
past a check index M, W_m**p >= B + (m - M) c with B = W_M**p and
c = w_M**p, and with a = 2/p >= 1 and A = M - n every later value of the
lower envelope is at most sup_{s >= 1} (A + s) / (B + s c)**a, which
``_log_tail_bound`` gives in closed form.  The scan checks that bound at
every multiple of ``_STRIDE`` and at its cap, and stops at the first check
index where it is at or below the running lower maximum: ``m_scanned`` is
that index, and the row is ``attained``.  The comparison is made in
logarithms with the relative margin of ``_proof_margin`` at M, which
covers the float sums' rounding, u + gamma_M**2, and a few ulp per log
entry up to M, so it depends on (w, p, M) alone, not on the table's
length.  A row whose proof does not close by the cap is
``truncated-unknown``.  On a weight file the bound covers every
nondecreasing continuation of the file, so ``attained`` is true of them
all.  No row diverges at p <= 2: every weight is at least 1, so
W_m**2 >= m and no envelope value passes 2.

The one bound closes the upper envelope too: with L the lower maximum,
first reached at m_1 <= M, and U the upper one, every m > M has
(m - n + 1) W_m**-2 = (m - n) W_m**-2 + W_m**-2 <= L + W_{m_1}**-2 <= U.
In floats both sides carry a few ulp of L, since L > 0 puts m_1 past n
and so W_{m_1}**-2 <= L; the margin, at least 2**-30 a, covers them.

The bound proves nothing at p > 2 (there a < 1), nor on a plateau, the
p = 2 case with exponents exactly (0, 0).  Those rows scan to the cap.  The
plateau is reached when the last two weights of the scan are equal, and
past its start W_m**2 = m c**2 + D, so both envelopes move monotonically
towards c**-2: the row is ``limit-at-infinity``, or ``attained`` where the
scan's maximum lies above c**-2.

``run_table`` makes a run: its one table and each n's row, one
``class_bounds`` call on that table per n, which every consumer reads as
made.  At p <= 2 it starts at 2 (n_max + _STRIDE) entries and, when an
n's proof runs past the table's end, builds it whole at twice the length
and scans that n again, up to the largest cap; otherwise it builds it to
the largest cap.  An empty grid builds no table, and neither does p = oo,
whose rows are ``class_error_infty``'s tail sums.

For p = oo the squared error equals the tail sum of w_j**-2.
``class_error_infty`` sums a head of h terms past n, h = 64 unless the
remainder bound or the weights' plateau w_j = 1 asks for more, and closes
the tail from J + 1/2, J = n + h, with the midpoint Euler-Maclaurin
formula, to 1e-12 (``converged``) or, where that target is missed, to the
reported bound (``truncated-unknown``), or is infinite (``divergent``)
where ``_regime`` says so at r = 2.  At beta >= 0 the integrand g is
completely monotone, so the closure runs to third order and its
remainder is bounded by the first omitted term; at beta < 0 it is the
integral alone, with the first-order bound.  A weight file is summed to
its end and reads ``truncated-unknown``.  One exp-sinh (double-
exponential) rule in numpy integrates the integrand scaled to its start
and peak, and the value is put together in logarithms; at 2 alpha = 1 the
rule integrates the difference from the leading u**(-2 beta) term, which
is added in closed form.  The reported ``truncation_bound`` is the
Euler-Maclaurin remainder bound plus the rule's error estimate and the
rounding of the head.

Squared errors are the internal currency throughout; square roots are taken
only at presentation boundaries.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .weights import PowLogWeights, WeightModel, _finite

__all__ = [
    "CumulativeWeightTable",
    "BoundResult",
    "InftyTailResult",
    "build_table",
    "default_m_max",
    "scan_length",
    "run_table",
    "class_bounds",
    "class_error_infty",
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

# entries per block of the envelope scan and of the p = oo head's fsum;
# the prefix sums take a quarter of it, so that their four float64
# temporaries make 512 KiB
_BLOCK = 2 ** 16
# the proof's check indices are the multiples of _STRIDE and the cap, so
# that a row's stop depends on (w, p, n, m_max) alone, never on the grid
_STRIDE = 256
# relative margin of the proof's comparison per unit of a = 2/p, besides
# the rounding of the log entries (see _proof_margin)
_PROOF_MARGIN = 2.0 ** -30
_TAIL_TOL = 1e-12
# last index of a p = oo head that doubles: h doubles only while n + 2h
# stays at or below it, and past it truncation_bound may exceed _TAIL_TOL
_MAX_TERMS = 10_000_000
# exp-sinh rule for the p = oo tail integral (Takahasi & Mori 1974)
_DE_T_MAX = 6.0          # nodes t in [-6, 6] of u = ln X + exp(pi/2 sinh t)
_DE_LEVELS = 8           # step halvings after h = 1: at most 3073 nodes
_DE_SAFETY = 10.0        # error = safety * |difference of the last levels|
_DE_ROUNDING = 64 * float(np.finfo(np.float64).eps)   # plus this * |value|
# and this * |value| per unit of |2a - 1| + |2b| and of the logarithms of
# the rule's unit: their rounding is multiplied up by the powers and by exp
_DE_ROUNDING_PER_EXPONENT = 4 * float(np.finfo(np.float64).eps)
_LN2 = math.log(2.0)
_LOG2E = 1.0 / _LN2
_FLOAT_MAX = float(np.finfo(np.float64).max)
_LOG_MAX = math.log(_FLOAT_MAX)
_LOG_TINY = math.log(float(np.finfo(np.float64).tiny))


def _check_p(p: float) -> None:
    # 2/p is the envelopes' exponent
    if not (0 < p < math.inf and math.isfinite(2.0 / float(p))):
        raise ValueError(f"p must be finite and positive, with 2/p finite, "
                         f"got {p}")


@dataclass(frozen=True, eq=False)
class CumulativeWeightTable:
    """Prefix sums of w_j**p as float64, then their logarithms.

    ``sums[k]`` is S_{k+1} = w_1**p + ... + w_{k+1}**p for k < ``switch``
    and ln S_{k+1} from ``switch`` on, where ``switch`` is the first index
    whose term or sum leaves the float64 range, or the table's length.
    The float entries are Sum2 sums (Ogita, Rump & Oishi 2005), within
    u + gamma_m**2 of S_m at index m (u = 2**-53, gamma_m = m u / (1 - m u),
    the terms being positive); each log entry adds a few ulp of a log-sum
    to the one before.  Every entry depends on (w, p, m) alone, never on
    the table's length.  ``weights`` maps m to w_m at every multiple of
    ``_STRIDE``, at the last two indices and at the indices ``run_table``
    asks for: what the proof and the plateau test of ``class_bounds`` read.
    """

    p: float
    sums: np.ndarray
    switch: int
    weights: dict

    @property
    def log_domain(self) -> bool:
        """Whether the table holds any log entry."""
        return self.switch < self.sums.size

    def log_W_slice(self, m_lo: int, m_hi: int) -> np.ndarray:
        """log W_m for m in [m_lo, m_hi] as a new float64 array."""
        seg, k = self._slice(m_lo, m_hi)
        out = seg.copy()
        np.log(out[:k], out=out[:k])
        out /= self.p
        return out

    def inv_sq_slice(self, m_lo: int, m_hi: int) -> np.ndarray:
        """W_m**-2 for m in [m_lo, m_hi] as a new float64 array."""
        seg, k = self._slice(m_lo, m_hi)
        out = np.empty_like(seg)
        np.power(seg[:k], -2.0 / self.p, out=out[:k])
        np.multiply(seg[k:], -2.0 / self.p, out=out[k:])
        np.exp(out[k:], out=out[k:])
        return out

    def weight(self, m: int) -> float:
        """w_m, where the table keeps it."""
        try:
            return self.weights[m]
        except KeyError:
            raise ValueError(f"table keeps no weight w_{m}") from None

    def _slice(self, m_lo: int, m_hi: int) -> tuple[np.ndarray, int]:
        """The entries for m in [m_lo, m_hi], and how many of them are
        float sums."""
        for m in (m_lo, m_hi):
            if not 1 <= m <= self.sums.size:
                raise ValueError(
                    f"table covers m in [1, {self.sums.size}], got {m}")
        seg = self.sums[m_lo - 1:m_hi]
        return seg, min(max(self.switch - m_lo + 1, 0), seg.size)


def build_table(w: WeightModel, p: float, M: int,
                keep=()) -> CumulativeWeightTable:
    """Tabulate prefix p-th power sums of the weights up to index M.

    The weights are raised to p and summed by Sum2, a block of
    ``_BLOCK // 4`` terms at a time, and the sums overwrite the weights'
    array up to the switch, the first index whose sum is not finite; from
    it on the weights become ln S_m, p ln w_m continued by ``np.logaddexp``
    from the last float sum.  The table holds that array and keeps w_m at
    the multiples of ``_STRIDE``, at M - 1 and M and at every index of
    ``keep``.  A float entry is within u + gamma_m**2 of S_m (see
    ``CumulativeWeightTable``), far below ``_PROOF_MARGIN`` for any m below
    2**37; a log entry's error grows by a few ulp of a log-sum per log
    entry up to it.
    """
    _check_p(p)
    if M < 1:
        raise ValueError(f"M must be >= 1, got {M}")
    M = int(M)
    vals = w.values(M)
    kept = dict(zip(range(_STRIDE, M + 1, _STRIDE),
                    vals[_STRIDE - 1::_STRIDE].tolist()))
    kept.update((m, float(vals[m - 1])) for m in (*keep, M - 1, M)
                if 1 <= m <= M)
    switch = _prefix_sums_in_place(vals, p)
    if switch < M:
        log_sums = vals[switch:]
        np.log(log_sums, out=log_sums)
        log_sums *= p
        if switch:
            log_sums[0] = np.logaddexp(np.log(vals[switch - 1]), log_sums[0])
        np.logaddexp.accumulate(log_sums, out=log_sums)
    return CumulativeWeightTable(p=float(p), sums=vals, switch=switch,
                                 weights=kept)


def _prefix_sums_in_place(vals: np.ndarray, p: float) -> int:
    """Overwrite vals with the Sum2 prefix sums of vals**p up to the first
    index whose sum is not finite, and return that index, or vals.size.

    Per block, s is the ``cumsum`` of the terms after the last block's s,
    err each step's TwoSum error of s_{k-1} + x_k = s_k, and the sum is s
    plus the ``cumsum`` of err after the last block's: the bits of one pass.
    """
    s_last = err_sum = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, vals.size, _BLOCK // 4):
            seg = vals[start:start + _BLOCK // 4]
            x = np.power(seg, p)
            s = np.cumsum(np.concatenate(([s_last], x)))
            prev, s = s[:-1], s[1:]
            # TwoSum: err = (prev - (s - d)) + (x - d) with d = s - prev,
            # formed in d and x
            d = s - prev
            x -= d
            d -= s
            d += prev
            d += x
            d[0] += err_sum
            np.cumsum(d, out=d)
            s_last, err_sum = float(s[-1]), float(d[-1])
            s += d
            finite = np.isfinite(s)
            if not finite.all():
                k = int(np.argmin(finite))
                seg[:k] = s[:k]
                return start + k
            seg[:] = s
    return vals.size


@dataclass(frozen=True)
class BoundResult:
    """The two envelopes' maxima for one n, with the row's status.

    ``lower_sq`` is a lower bound on the squared class value at every p,
    ``upper_sq`` an upper bound at p <= 2 only; at 2 < p < oo it is the
    upper envelope's maximum, which bounds nothing.  Both are infinite
    when divergent, and where the scan has reached a p = 2 plateau c, the
    larger of the scanned supremum and the limit c**-2 (both equal to it
    when the supremum is approached at infinity).
    ``scan_lower_sq``/``scan_upper_sq`` always hold the finite suprema
    found over the scanned index range, up to ``m_scanned``; they are what
    a finite witness or oracle can be compared against.  ``argmax_m`` is
    the first index of the upper envelope's maximum on an ``attained`` row.
    """

    n: int
    lower_sq: float
    upper_sq: float
    argmax_m: int | None
    status: str
    m_scanned: int
    scan_lower_sq: float
    scan_upper_sq: float


def default_m_max(n: int) -> int:
    return max(1024, 64 * int(n))


def scan_length(w: WeightModel, n: int, m_max: int | None = None) -> int:
    """Cap of the scan for n: ``m_max``, or ``default_m_max(n)``, clipped
    to the length of a tabulated model."""
    size = default_m_max(n) if m_max is None else int(m_max)
    if w.known_length is not None:
        size = min(size, w.known_length)
    return size


def _regime(w: WeightModel, p: float) -> tuple[bool, bool]:
    """(divergent, plateau) from a closed-form model's exponents, at every
    p; a weight file has none, and is neither.  The plateau is p = 2 on
    exponents exactly (0, 0).  At p > 2 the worst case carries a Hoelder
    tail sum_j w_j**-r, r = 2p/(p-2) (2 at p = oo), which diverges where
    alpha r < 1, or alpha r = 1 and beta r <= 1, each edge decided exactly
    on the given floats."""
    prof = w.asymptotic_exponents
    if prof is None:
        return False, False
    if p <= 2:
        return False, p == 2 and prof == (0.0, 0.0)
    alpha_edge, beta_edge = (_edge_sign(x, p) for x in prof)
    return alpha_edge < 0 or (alpha_edge == 0 and beta_edge <= 0), False


def _edge_sign(x: float, p: float) -> int:
    """The sign of x r - 1, r = 2p/(p-2), p > 2, in integers: with
    x = a/b and p = P/Q (P/0 at p = oo), x r - 1 = (2Pa - b(P - 2Q)) /
    (b(P - 2Q))."""
    a, b = float(x).as_integer_ratio()
    P, Q = (1, 0) if p == math.inf else float(p).as_integer_ratio()
    v = 2 * P * a - b * (P - 2 * Q)
    return (v > 0) - (v < 0)


def _log_tail_bound(A, log_B, log_c, p: float):
    """log sup_{s >= 1} (A + s) / (B + s c)**a, a = 2/p >= 1, from log B
    and log c: a bound on the lower envelope (m - n) / W_m**2 for every
    m > M, where A = M - n, B = W_M**p and c = w_M**p.

    (A + s) / (B + s c)**a rises up to s = (B - a c A) / ((a - 1) c) and
    falls past it; at a = 1 it is monotone, towards 1/c.

    At a p near 0, a A or the power may pass the float64 range.  Then
    r - a A < 0, so s is 1, and the bound's logarithm lies below -max: it
    is returned as -max, not -inf, so that it proves nothing against an
    envelope maximum that is 0.0 or fell to it.
    """
    a = 2.0 / p
    r = np.exp(log_B - log_c)            # B / c, in [1, M]
    if a == 1.0:
        return np.maximum(np.log(A + 1.0) - log_c - np.log(r + 1.0), -log_c)
    with np.errstate(over="ignore"):
        s = np.maximum(1.0, (r - a * A) / (a - 1.0))
        log_bound = np.log(A + s) - a * (log_c + np.log(r + s))
    return np.maximum(log_bound, -_FLOAT_MAX)


def _proof_margin(table: CumulativeWeightTable, M):
    """The proof's relative margin at check index M, taken as a logarithm:
    a = 2/p times _PROOF_MARGIN, for the rounding of the bound, of the
    envelope, of the structure oracle's logarithms and of a float sum (u +
    gamma_M**2, far below it), plus 2**-40 (a few ulp of a log-sum below
    1500) per log entry up to M."""
    return 2.0 / table.p * (_PROOF_MARGIN + 2.0 ** -40
                            * np.maximum(M - table.switch, 0))


def _closed(table: CumulativeWeightTable, n: int, checks: np.ndarray,
            lower: np.ndarray) -> np.ndarray:
    """At each check index M, whether the lower envelope's bound past M,
    with the margin at M, is at or below its running maximum ``lower``."""
    sums = table.sums[checks - 1]
    log_B = np.log(sums, out=sums, where=checks <= table.switch)
    log_c = table.p * np.log([table.weight(int(M)) for M in checks])
    with np.errstate(divide="ignore"):
        log_lower = np.log(lower)
    return (_log_tail_bound((checks - n).astype(np.float64), log_B, log_c,
                            table.p)
            + _proof_margin(table, checks) <= log_lower)


class _ShortTable(ValueError):
    """The table ends before the scan's stop."""


def _scan(table: CumulativeWeightTable, n: int, end: int,
          proved: bool) -> tuple:
    """Scan the envelopes (m - n [+ 1]) W_m**-2 over m in [max(n, 1), end],
    a block at a time.

    Returns (lower, upper, m_star, stop, closed): the envelopes' maxima
    over [max(n, 1), stop], and the first index where the upper one reaches
    its maximum.  With ``proved`` set, stop is the first check index (a
    multiple of ``_STRIDE``, or end) where the lower envelope's bound past
    it is at or below its maximum, and closed is True; else stop is end.
    An empty range gives zeros and stop = 0; a table that ends before stop
    raises ``_ShortTable``.  A block ends at a multiple of ``_STRIDE``, or
    at end; the first one runs about as far past max(n, 1) as that index
    itself, within [_STRIDE, _BLOCK], and each next one twice as far as
    the last, up to ``_BLOCK``.  m - n is an integer below 2**53, exact in
    a float64 arange, so each product is the one of the whole-array
    formula.
    """
    lo = max(n, 1)
    if end < lo:
        return 0.0, 0.0, None, 0, False
    size = table.sums.size
    lower, upper, m_star = 0.0, -1.0, None
    m, length = lo, min(max(lo, _STRIDE), _BLOCK)
    while m <= size:
        hi = min(end, size, -(-(m + length - 1) // _STRIDE) * _STRIDE)
        t_up = table.inv_sq_slice(m, hi)
        k = np.arange(m - n, hi - n + 1, dtype=np.float64)
        t_low = k * t_up
        k += 1.0
        t_up *= k
        stop, closed = hi, False
        if proved:
            checks = np.arange(-(-m // _STRIDE) * _STRIDE, hi + 1, _STRIDE)
            if hi == end and not (checks.size and checks[-1] == end):
                checks = np.append(checks, end)
            ok = _closed(table, n, checks, np.maximum(
                np.maximum.accumulate(t_low)[checks - m], lower))
            if ok.any():
                stop, closed = int(checks[np.argmax(ok)]), True
                t_low, t_up = t_low[:stop - m + 1], t_up[:stop - m + 1]
        lower = max(lower, float(t_low.max()))
        i = int(np.argmax(t_up))
        if t_up[i] > upper:
            upper, m_star = float(t_up[i]), m + i
        if closed or stop == end:
            return lower, upper, m_star, stop, closed
        m, length = stop + 1, min(2 * length, _BLOCK)
    raise _ShortTable(f"table covers m in [1, {size}], short of the scan "
                      f"for n = {n} (cap {end})")


def run_table(w: WeightModel, p: float, n_values: Sequence[int],
              m_max: int | None = None
              ) -> tuple[CumulativeWeightTable | None,
                         list[BoundResult] | list[InftyTailResult]]:
    """The one table of a run over ``n_values``, and each n's
    ``class_bounds`` row read from it, in grid order; at p = oo no table,
    and each n's ``class_error_infty`` tail sum, with ``m_max`` unread.

    ``n`` and a given ``m_max`` are checked first, against every n in grid
    order, so that a bad one is named before any table is built.  The table
    keeps the weights at each n's cap and the index before it.  Where
    ``class_bounds`` proves its maximum (p <= 2), the table starts at
    2 (n_max + _STRIDE) entries; when an n's scan runs past its end before
    the proof closes, it is dropped and built whole at twice the length, up
    to the largest cap, and that n is scanned again.  Otherwise it is built
    to the largest cap at once.  An empty grid gives no rows and builds no
    table, None.
    """
    if p == math.inf:
        return None, [class_error_infty(w, n) for n in n_values]
    _check_p(p)
    n_values = [int(n) for n in n_values]
    for n in n_values:
        if n < 0:
            raise ValueError(f"n must be >= 0, got {n}")
        if m_max is not None and m_max < n + 1:
            raise ValueError(
                f"m_max must be >= n + 1, got {m_max} < {n + 1}")
    if not n_values:
        return None, []
    ends = [scan_length(w, n, m_max) for n in n_values]
    keep = {m for end in ends for m in (end - 1, end)}
    top = max(ends)
    proved = p <= 2 and not _regime(w, p)[1]
    size = min(top, 2 * (max(n_values) + _STRIDE)) if proved else top
    table, rows = None, []
    for n in n_values:
        row = None
        while row is None:
            if table is None:
                table = build_table(w, p, size, keep)
            try:
                row = class_bounds(w, p, n, m_max, table=table)
            except _ShortTable:
                # drop the table before one twice as long is built
                table, size = None, min(2 * size, top)
        rows.append(row)
    return table, rows


def class_bounds(
    w: WeightModel,
    p: float,
    n: int,
    m_max: int | None = None,
    *,
    table: CumulativeWeightTable | None = None,
) -> BoundResult:
    """Scan the two worst-case envelopes over m from n on and classify.

    The scan starts at max(n, 1) since W_m is defined for m >= 1; the m = n
    term of the lower envelope is zero anyway.  Its cap is ``scan_length``;
    at p <= 2 it stops earlier, where the proof closes (see the module
    docstring).  Past a weight file's end, where the scan is empty, the row
    is ``truncated-unknown`` with zero values.  A reusable ``table`` may be
    passed when several n share one weight model; it is used as given, so
    it must be of p, reach the scan's stop and keep w at the cap and the
    index before it, as every ``run_table`` table does; a table that lacks
    a weight the row reads is refused (``CumulativeWeightTable.weight``).
    Without one, ``run_table`` builds it.
    """
    _check_p(p)
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    n = int(n)
    if table is None:
        return run_table(w, p, [n], m_max)[1][0]
    if table.p != p:
        raise ValueError(f"table is for p = {table.p}, not {p}")

    end = scan_length(w, n, m_max)
    divergent, plateau = _regime(w, p)
    scan_lower, scan_upper, m_star, stop, closed = _scan(
        table, n, end, p <= 2 and not plateau)

    def result(status, lower=scan_lower, upper=scan_upper, argmax=None):
        return BoundResult(
            n=n, lower_sq=lower, upper_sq=upper, argmax_m=argmax,
            status=status, m_scanned=stop,
            scan_lower_sq=scan_lower, scan_upper_sq=scan_upper)

    # closed needs a proof, so p <= 2 and no plateau; divergent needs p > 2
    if closed:
        return result(STATUS_ATTAINED, argmax=m_star)
    if divergent:
        return result(STATUS_DIVERGENT, math.inf, math.inf)
    # the plateau family's running max rises strictly up to c, so the scan
    # has reached it when its last two weights are equal
    if plateau and end >= 2 and table.weight(end - 1) == table.weight(end):
        limit = table.weight(end) ** -2.0
        # both envelopes move monotonically towards c**-2 past the scan
        lower, upper = max(scan_lower, limit), max(scan_upper, limit)
        if limit >= scan_upper:
            return result(STATUS_LIMIT, lower, upper)
        return result(STATUS_ATTAINED, lower, upper, argmax=m_star)
    return result(STATUS_TRUNCATED)


@dataclass(frozen=True)
class InftyTailResult:
    """Tail sum of w_j**-2 past index n (the exact p = oo squared error)."""

    value_sq: float
    truncation_bound: float
    status: str
    terms_summed: int


def _tail_integrand_derivatives(alpha: float, beta: float,
                                x: float) -> list[float]:
    """g^(k)(x) for k = 0..5, g(x) = x**(-2 alpha) * log2(x + 1)**(-2 beta),
    from the Taylor series of ln g at x; all inf where g passes the float64
    maximum.  q(t) = ln g(x + t) - ln g(x) sums the series of ln(x + t) and
    of ln ln(x + 1 + t), and g(x + t) = g(x) e**q(t); ln(1 + v) and e**q
    are taken term by term from (1 + v) L' = v' and E' = q' E.  At
    beta >= 0 the terms of each sum share one sign, so none cancels."""
    y = x + 1.0
    try:
        g = x ** (-2.0 * alpha) * math.log2(y) ** (-2.0 * beta)
    except OverflowError:
        g = 0.0
    if not 0.0 < g < math.inf:
        # a factor left the float64 range: the product in logarithms
        try:
            g = math.exp(-2.0 * alpha * math.log(x)
                         - 2.0 * beta * math.log(math.log2(y)))
        except OverflowError:
            return [math.inf] * 6
    # the series of ln(x + t) - ln x and of v = ln(y + t) / ln y - 1
    lx = [0.0] + [-(-1.0 / x) ** k / k for k in range(1, 6)]
    v = [0.0] + [-(-1.0 / y) ** k / (k * math.log(y)) for k in range(1, 6)]
    L = [0.0] * 6
    for k in range(1, 6):
        L[k] = v[k] - sum(j * L[j] * v[k - j] for j in range(1, k)) / k
    q = [-2.0 * alpha * a - 2.0 * beta * b for a, b in zip(lx, L)]
    e = [1.0] + [0.0] * 5
    for k in range(1, 6):
        e[k] = sum(j * q[j] * e[k - j] for j in range(1, k + 1)) / k
    return [g * math.factorial(k) * e[k] for k in range(6)]


def _tail_integral(alpha: float, beta: float, X: float,
                   epsabs: float) -> tuple[float, float]:
    """Integral of x**(-2a) log2(x+1)**(-2b) over [X, oo), and its error.

    In u = ln x the integrand is h(u) = e**(-c u) l2(u)**(-2b), with
    c = 2a - 1 and l2(u) = log2(e**u + 1).  One exp-sinh rule integrates
    h divided by a unit: X**-c (ln X log2 e)**(-2b), which is h(ln X) up to
    a factor near 1, times the interior peak of h where it has one.  Its
    nodes are u = ln X + exp(pi/2 sinh t), t in [-_DE_T_MAX, _DE_T_MAX];
    it halves the step from 1 at most _DE_LEVELS times, until two levels
    agree to ``epsabs`` over the unit (where that is at least a normal
    float) or to _DE_ROUNDING of the value.  At 2a = 1 h decays only like
    u**(-2b), too slowly for any fixed t-range, so the rule integrates
    h(u) - (u log2 e)**(-2b), which decays like e**-u, and the subtracted
    term is added in closed form.

    The unit is kept as a logarithm: past the float64 maximum the value
    raises ``OverflowError``, below the smallest normal it may be 0.0 or
    subnormal.  The error is _DE_SAFETY times the last level difference
    plus _DE_ROUNDING of the value, _DE_ROUNDING_PER_EXPONENT of it per
    unit of |c| + |2b| and of the unit's logarithms, and twice the
    smallest subnormal.
    """
    a = math.log(X)
    boundary = 2.0 * alpha == 1.0
    c = 0.0 if boundary else 2.0 * alpha - 1.0
    # h(u) = e**(log_unit - shift) e**(-c s) (u/a)**(-2b) (1 + d(u)/u)**(-2b)
    # with s = u - a and d(u) = ln(1 + e**-u); the rule integrates the part
    # after the unit, less shift.  -c s - 2b ln(1 + s/a) peaks at
    # s = -2b/c - a where that is positive
    shift = 0.0
    if beta < 0.0 and c > 0.0 and -2.0 * beta / c > a:
        top = -2.0 * beta / c - a
        shift = -c * top - 2.0 * beta * math.log1p(top / a)
    unit_terms = (-c * a, -2.0 * beta * math.log(a * _LOG2E), shift)
    log_unit = sum(unit_terms)
    # epsabs in units of e**log_unit, where that is at least a normal float
    tol = epsabs * math.exp(-log_unit) if log_unit >= _LOG_TINY else 0.0

    def f(t: np.ndarray) -> np.ndarray:
        s = np.exp(0.5 * np.pi * np.sinh(t))
        u = a + s
        corr = -2.0 * beta * np.log1p(np.log1p(np.exp(-u)) / u)
        m = np.expm1(corr) if boundary else np.exp(corr)
        return (np.exp(-c * s - 2.0 * beta * np.log1p(s / a) - shift) * m
                * (0.5 * np.pi * np.cosh(t) * s))

    closed = a / (2.0 * beta - 1.0) if boundary else 0.0
    h = 1.0
    est = float(f(np.arange(-_DE_T_MAX, _DE_T_MAX + 0.5)).sum())
    for _ in range(_DE_LEVELS):
        h /= 2.0
        new = 0.5 * est + h * float(
            f(np.arange(-_DE_T_MAX + h, _DE_T_MAX, 2.0 * h)).sum())
        step_err = _DE_SAFETY * abs(new - est)
        est = new
        norm = closed + est
        if step_err <= max(tol, _DE_ROUNDING * abs(norm)):
            break

    log_value = log_unit + math.log(norm)
    if log_value > _LOG_MAX:
        raise OverflowError(
            f"tail integral e**{log_value:.6g} is past the float64 range")
    # e**log_unit * norm, the powers of two of e**log_unit moved into ldexp
    # so that exp can neither overflow nor underflow
    k = round(log_unit * _LOG2E)
    value = math.ldexp(math.exp(log_unit - k * _LN2) * norm, k)
    rel = (step_err / norm + _DE_ROUNDING + _DE_ROUNDING_PER_EXPONENT * (
        abs(c) + abs(2.0 * beta) + sum(map(abs, unit_terms))
        + abs(log_unit)))
    return value, rel * value + 2.0 * math.ulp(0.0)


def _fsum(a: np.ndarray) -> float:
    """``math.fsum`` of a float64 array, handed to it as Python floats a
    block of ``_BLOCK`` at a time: one correctly rounded sum, the same bits
    as over one list of all of them, without that list."""
    return math.fsum(itertools.chain.from_iterable(
        a[i:i + _BLOCK].tolist() for i in range(0, a.size, _BLOCK)))


def class_error_infty(w: WeightModel, n: int) -> InftyTailResult:
    """Sum w_j**-2 for j > n to an absolute truncation bound of _TAIL_TOL.

    The target is fixed at 1e-12.  Closed-form families sum a head of h
    terms, j in [n + 1, J] with J = n + h, and close the tail with the
    midpoint Euler-Maclaurin formula from J + 1/2: the integral of
    g(x) = x**(-2 alpha) log2(x + 1)**(-2 beta), by the exp-sinh rule of
    ``_tail_integral`` (at 2 alpha = 1 with the leading term subtracted
    and added in closed form), and, at beta >= 0, the third-order
    correction g'(J + 1/2)/24 - 7 g'''(J + 1/2)/5760.  There g is
    completely monotone on (0, oo), a completely monotone power times a
    negative power of the Bernstein function log(1 + x), so the remainder
    is bounded by the first omitted term, 31 |g^(5)(J + 1/2)|/967680.  At
    beta < 0 no such sign argument is at hand: no correction is added, and
    the remainder bound is the first-order |g'(J + 1/2)|/12.  h starts at
    64 and doubles until the remainder bound is at most half the target
    and w_J is past the plateau w_j = 1, while n + 2h stays at or below
    _MAX_TERMS.  The head's weights alone are evaluated, as max(1, formula)
    (see ``past_plateau``).  ``truncation_bound`` adds the remainder bound,
    the rule's error estimate and the rounding of the head and of the sum.
    The
    status is ``converged`` when that meets the target and
    ``truncated-unknown`` when it does not: the head stopped at
    _MAX_TERMS, or the rule's rounding allowance, 64 eps of the integral,
    alone passes 1e-12, as it does for an integral above about 70.
    A weight file is summed to its end, terms j in [n + 1, L], and the
    remainder past it is unknown: ``truncated-unknown`` with an infinite
    bound, and 0.0 past the file's end.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    n = int(n)

    known = w.known_length
    if known is not None:
        terms = w.values(known)[n:] ** -2.0
        return InftyTailResult(_fsum(terms), math.inf, STATUS_TRUNCATED,
                               int(terms.size))

    prof = w.asymptotic_exponents
    if prof is None:
        raise ValueError(f"unsupported weight model {type(w).__name__}")
    if _regime(w, math.inf)[0]:
        return InftyTailResult(math.inf, math.inf, STATUS_DIVERGENT, 0)

    alpha, beta = prof
    # only PowLog reaches this point (const/logpow tails always diverge)
    assert isinstance(w, PowLogWeights)

    def closure(J: int) -> tuple[float, float]:
        # the correction from J + 1/2 and the bound on what it leaves
        g = _tail_integrand_derivatives(alpha, beta, J + 0.5)
        if beta >= 0.0:
            return (g[1] / 24.0 - 7.0 * g[3] / 5760.0,
                    31.0 * abs(g[5]) / 967680.0)
        return 0.0, abs(g[1]) / 12.0

    def past_plateau(J: int) -> bool:
        # the raw formula starts at 1 and at most dips before it rises, so
        # the running max is max(1, formula) (non-finite fails in the head)
        with np.errstate(over="ignore", invalid="ignore"):
            return not w.raw_value(np.float64(J)) < 1.0

    h = 64
    while ((closure(n + h)[1] > 0.5 * _TAIL_TOL or not past_plateau(n + h))
           and n + 2 * h <= _MAX_TERMS):
        h *= 2
    J = n + h
    if not past_plateau(J):
        raise ValueError(f"weights stay on their plateau w_j = 1 past "
                         f"index {J}, the longest p = inf head")

    with np.errstate(over="ignore", invalid="ignore"):
        head = np.maximum(w.raw_value(np.arange(n + 1.0, J + 1.0)), 1.0)
    head = _fsum(_finite(head, n + 1) ** -2.0)
    integral, rule_err = _tail_integral(
        alpha, beta, J + 0.5, epsabs=0.25 * _TAIL_TOL)
    correction, remainder = closure(J)
    value = math.fsum((head, integral, correction))
    # a head term carries the rounding of j**alpha, of log2(j + 1)**beta,
    # which |beta| multiplies, and of the square: within 4 eps (2 + |2 beta|)
    # of w_j**-2; the value is within half an ulp of its three parts' sum
    bound = (remainder + rule_err + math.ulp(value) + _DE_ROUNDING_PER_EXPONENT
             * (2.0 + abs(2.0 * beta)) * head)
    return InftyTailResult(
        value_sq=value,
        truncation_bound=bound,
        status=STATUS_CONVERGED if bound <= _TAIL_TOL else STATUS_TRUNCATED,
        terms_summed=h,
    )
