"""Concrete coefficient sequences and their exact n-term tail errors.

A sequence is a finite list of real coefficients (index 1 first) with an
implicit zero tail.  The best n-term approximation in the euclidean norm
keeps the n largest magnitudes, so the exact error is the l2 norm of the
remaining tail of the decreasing rearrangement.  All operations are pure
functions on immutable inputs.

Every tail is a prefix of the ascending sort of |x|, so ``scaled_tail_sqs``
sorts once and answers a whole n grid from one pass of exact integer prefix
sums; each sigma_n**2 is the correctly rounded sum of the tail's rounded,
power-of-two scaled squares (its docstring gives the algorithm).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bounds import build_table
from .weights import WeightModel

__all__ = [
    "CoefficientSequence",
    "as_sequence",
    "weighted_lp_norm",
    "scaled_tail_sqs",
    "sigma_sq_exact",
    "sigma_n_exact",
    "extremal_sequence",
]


@dataclass(frozen=True, eq=False)
class CoefficientSequence:
    """Finite-support coefficient sequence; zero beyond ``support_len``.

    Entries must be finite; a NaN or infinite entry raises ``ValueError``.
    """

    entries: np.ndarray

    def __post_init__(self):
        arr = np.array(self.entries, dtype=np.float64).reshape(-1)
        bad = np.nonzero(~np.isfinite(arr))[0]
        if bad.size:
            raise ValueError(
                f"entry {int(bad[0]) + 1} is {arr[bad[0]]}, not finite")
        arr.setflags(write=False)
        object.__setattr__(self, "entries", arr)

    @property
    def support_len(self) -> int:
        return int(self.entries.size)

    def __len__(self) -> int:
        return self.support_len

    def __repr__(self) -> str:
        return f"CoefficientSequence({self.entries.tolist()!r})"


def as_sequence(x) -> CoefficientSequence:
    """Coerce array-likes, or pass a sequence through."""
    if isinstance(x, CoefficientSequence):
        return x
    return CoefficientSequence(np.asarray(x, dtype=np.float64))


def weighted_lp_norm(x, w: WeightModel, p: float) -> float:
    """(sum_j |w_j x_j|**p)**(1/p), or sup_j w_j |x_j| for p = oo."""
    if not p > 0:
        raise ValueError(f"p must be positive, got {p}")
    a = np.abs(as_sequence(x).entries)
    if a.size == 0:
        return 0.0
    t = w.values(a.size) * a
    if math.isinf(p):
        return float(t.max())
    return float(math.fsum((t ** p).tolist()) ** (1.0 / p))


# limbs of the 54-bit integer square mantissas, high to low
_LIMB_BITS = 18
_LIMB_MASK = (1 << _LIMB_BITS) - 1
_LIMB_SHIFTS = np.array([2 * _LIMB_BITS, _LIMB_BITS, 0])


def scaled_tail_sqs(x, n_values) -> list[tuple[float, int]]:
    """(S, e) with sigma_n(x)**2 = S * 2**(2e), for each n of ``n_values``.

    The tail past the n largest magnitudes is scaled by 2**-e, with e the
    binary exponent of its largest entry, so that entry lands in [0.5, 1).
    S is ``math.fsum`` of the tail's rounded squares (a * 2**-e)**2: their
    sum rounded once.  sigma_n**2 = ldexp(S, 2e) and sigma_n =
    ldexp(sqrt(S), e) both come from it, so sigma_n**2 is not the square of
    a rounded root.  n at or beyond the support, or a tail of zeros, gives
    (0.0, 0).  ``n_values`` may be unsorted and repeat.

    The algorithm sorts |x| once; every tail is a prefix of that sort.  A
    positive entry a = f * 2**k (f in [0.5, 1)) has the rounded square
    fl(f*f) * 2**(2k), where Q = fl(f*f) * 2**54 is an integer below 2**54.
    Where a * 2**-e >= 2**-511, its scaled square is normal and equals
    Q * 2**(2k - 54 - 2e) exactly.  Q is split into three 18-bit limbs,
    whose running sums over the sorted entries are integers held exactly in
    float64 while they stay below 2**53, that is for fewer than 2**35
    entries.  k is nondecreasing along the sort, so the entries sharing a k
    are one contiguous run, and the running sums give each run's limb sums
    within the tail by one subtraction.  Each limb sum times its power of
    two is exact, so one short ``math.fsum`` per n, over those terms and the
    squares below 2**-1022 (a sorted prefix of the tail, usually empty,
    squared as they are), rounds the same exact total: the result does not
    depend on the grid.
    """
    n_values = [int(n) for n in n_values]
    for n in n_values:
        if n < 0:
            raise ValueError(f"n must be >= 0, got {n}")
    a = np.abs(as_sequence(x).entries)
    a.sort()
    zeros = int(np.searchsorted(a, 0.0, side="right"))
    pos = a[zeros:]
    f, k = np.frexp(pos)
    # the first index of each run of equal k; the first run starts at 0
    starts = np.flatnonzero(np.diff(k, prepend=k[:1] - 1))
    run_k = k[starts].astype(np.int64)
    del k
    f *= f
    q = np.ldexp(f, 54, out=f).astype(np.int64)
    del f
    # cum[:, i] = limb sums over pos[:i]; exact for fewer than 2**35 entries
    cum = np.zeros((3, pos.size + 1))
    limb = np.empty_like(q)
    for row, shift in zip(cum, _LIMB_SHIFTS):
        np.right_shift(q, shift, out=limb)
        row[1:] = np.bitwise_and(limb, _LIMB_MASK, out=limb)
    del q, limb
    np.cumsum(cum[:, 1:], axis=1, out=cum[:, 1:])

    out = []
    for n in n_values:
        hi = a.size - n - zeros  # tail entries in pos[:hi]
        if hi <= 0:
            out.append((0.0, 0))
            continue
        e = math.frexp(float(pos[hi - 1]))[1]
        lo = int(np.searchsorted(pos, math.ldexp(1.0, e - 511)))
        terms = (np.ldexp(pos[:lo], -e) ** 2).tolist()
        first = int(np.searchsorted(starts, lo, side="right")) - 1
        last = int(np.searchsorted(starts, hi - 1, side="right")) - 1
        cuts = np.concatenate(([lo], starts[first + 1:last + 1], [hi]))
        sums = cum[:, cuts[1:]] - cum[:, cuts[:-1]]
        scale = 2 * run_k[first:last + 1] - 54 - 2 * e
        terms += np.ldexp(sums, scale + _LIMB_SHIFTS[:, None]).ravel().tolist()
        out.append((math.fsum(terms), e))
    return out


def sigma_sq_exact(x, n: int) -> float:
    """sigma_n(x)**2 from one exact sum, not the square of a rounded root."""
    (s, e), = scaled_tail_sqs(x, [n])
    return math.ldexp(s, 2 * e)


def sigma_n_exact(x, n: int) -> float:
    """Exact l2 error after keeping the n largest magnitudes.

    n = 0 gives the full l2 norm; n at or beyond the support gives 0.  The
    tail's squares are summed exactly and rounded once (``scaled_tail_sqs``),
    so permutations of x produce bit-identical results.  The tail is scaled by
    a power of two before squaring and the root scaled back, so scaling x by
    2**k scales the result by exactly 2**k, as long as every 2**k * x_j is
    exact and neither result is subnormal.  A subnormal result carries fewer
    bits, so there the identity can fail.
    """
    (s, e), = scaled_tail_sqs(x, [n])
    return math.ldexp(math.sqrt(s), e)


def extremal_sequence(w: WeightModel, p: float, m: int) -> CoefficientSequence:
    """m equal entries 1/W_m: a unit-sphere element of the weighted lp ball."""
    if math.isinf(p):
        raise ValueError("p must be finite")
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    m = int(m)
    W = build_table(w, p, m).W(m)
    return CoefficientSequence(np.full(m, 1.0 / W))
