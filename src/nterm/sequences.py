"""Concrete coefficient sequences and their exact n-term tail errors.

A sequence is a finite list of real coefficients (index 1 first) with an
implicit zero tail.  The best n-term approximation in the euclidean norm
keeps the n largest magnitudes, so the exact error is the l2 norm of the
remaining tail of the decreasing rearrangement.  All operations are pure
functions on immutable inputs.

Every tail is a prefix of the ascending sort of |x|, so ``scaled_tail_sqs``
sorts once and answers a whole n grid from exact integer sums over the few
segments its tails cut; each sigma_n**2 is the correctly rounded sum of the
tail's rounded, power-of-two scaled squares (its docstring gives the
algorithm).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .weights import WeightModel

__all__ = [
    "CoefficientSequence",
    "as_sequence",
    "weighted_lp_norm",
    "scaled_tail_sqs",
    "sigma_sq_exact",
    "sigma_n_exact",
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
    Q * 2**(2k - 54 - 2e) exactly.  Q is split into three 18-bit limbs.  k
    is nondecreasing along the sort, so the entries sharing a k are one
    contiguous run.  The limb sums are kept only at the indices a tail
    reads: the run starts and each n's first normal square and end.  They
    are the running sums of ``np.add.reduceat`` over those segments,
    integers held exactly while they stay below 2**53, that is for fewer
    than 2**35 entries, and give each run's limb sums within the tail by
    one subtraction.  Each limb sum times its power of two is exact, so one
    short ``math.fsum`` per n, over those terms and the squares below
    2**-1022 (a sorted prefix of the tail, usually empty, squared as they
    are), rounds the same exact total: the result does not depend on the
    grid.  Besides x, the sort's 8 bytes per entry and then Q and one limb,
    16 bytes per entry, are held.
    """
    n_values = [int(n) for n in n_values]
    for n in n_values:
        if n < 0:
            raise ValueError(f"n must be >= 0, got {n}")
    pos = np.abs(as_sequence(x).entries)
    pos.sort()
    pos = pos[int(np.searchsorted(pos, 0.0, side="right")):]
    # tails[n] = (hi, e, lo): the tail pos[:hi] is scaled by 2**-e, and the
    # scaled squares of pos[:lo] are below 2**-1022
    tails = {}
    for n in n_values:
        hi = pos.size - n
        if hi > 0:
            e = math.frexp(float(pos[hi - 1]))[1]
            lo = int(np.searchsorted(pos, math.ldexp(1.0, e - 511)))
            tails[n] = (hi, e, lo)
    if not tails:
        return [(0.0, 0)] * len(n_values)
    tiny = pos[:max(lo for _, _, lo in tails.values())].copy()
    # the mantissas take the place of the entries
    f, k = np.frexp(pos, out=(pos, None))
    # the first index of each run of equal k; the first run starts at 0
    starts = np.flatnonzero(np.concatenate(([True], k[1:] != k[:-1])))
    run_k = k[starts].astype(np.int64)
    del k
    f *= f
    q = np.ldexp(f, 54, out=f).astype(np.int64)
    del f, pos
    # sorted by Python, not np.unique, whose first call imports numpy.ma
    cuts = np.array(sorted({q.size, *starts.tolist(), *(
        i for hi, _, lo in tails.values() for i in (lo, hi))}))
    # cum[:, c] = limb sums over the entries before cuts[c]
    cum = np.zeros((3, cuts.size))
    limb = np.empty_like(q)
    for row, shift in zip(cum, _LIMB_SHIFTS):
        np.right_shift(q, shift, out=limb)
        np.bitwise_and(limb, _LIMB_MASK, out=limb)
        row[1:] = np.cumsum(np.add.reduceat(limb, cuts[:-1]))
    del q, limb

    out = []
    for n in n_values:
        if n not in tails:
            out.append((0.0, 0))
            continue
        hi, e, lo = tails[n]
        terms = (np.ldexp(tiny[:lo], -e) ** 2).tolist()
        first = int(np.searchsorted(starts, lo, side="right")) - 1
        last = int(np.searchsorted(starts, hi - 1, side="right")) - 1
        at = np.searchsorted(cuts, np.concatenate(
            ([lo], starts[first + 1:last + 1], [hi])))
        sums = cum[:, at[1:]] - cum[:, at[:-1]]
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
