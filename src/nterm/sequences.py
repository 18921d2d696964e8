"""Concrete coefficient sequences and their exact n-term tail errors.

A sequence is a finite list of real coefficients (index 1 first) with an
implicit zero tail.  The best n-term approximation in the euclidean norm
keeps the n largest magnitudes, so the exact error is the l2 norm of the
remaining tail of the decreasing rearrangement.  All operations are pure
functions on immutable inputs.

Every tail is a prefix of the ascending sort of |x|, so ``scaled_tail_sqs``
sorts a copy of |x| once and ``sorted_tail_sqs`` answers a whole n grid from
exact integer sums over the few segments its tails cut; each sigma_n**2 is
the correctly rounded sum of the tail's rounded, power-of-two scaled squares
(``sorted_tail_sqs``'s docstring gives the algorithm).  The sums read the
sorted array and hold one block of ``_BLOCK`` entries besides it, so
``scaled_tail_sqs`` holds 8 bytes per entry beyond x, the copy.  A caller
that owns its array, as the ``exact`` command owns the one it read, sorts
|x| in place and holds nothing of the input's length but that array.
``check_finite`` is the one rule for an entry that is not finite, for a
``CoefficientSequence`` and for that command's array alike.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .weights import WeightModel

__all__ = [
    "CoefficientSequence",
    "check_finite",
    "as_sequence",
    "weighted_lp_norm",
    "scaled_tail_sqs",
    "sorted_tail_sqs",
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
        check_finite(arr)
        arr.setflags(write=False)
        object.__setattr__(self, "entries", arr)

    @property
    def support_len(self) -> int:
        return int(self.entries.size)

    def __len__(self) -> int:
        return self.support_len

    def __repr__(self) -> str:
        return f"CoefficientSequence({self.entries.tolist()!r})"


def check_finite(entries: np.ndarray, path: str | None = None,
                 blanks: Sequence[int] = ()) -> None:
    """Raise ``ValueError`` naming the first entry that is not finite.

    It is named ``entry K`` (1-based) or, for the numbers and blank lines
    ``weights.read_number_lines`` read from the file ``path``, ``PATH:LINE``,
    blank lines counted.  The minimum and the maximum carry a NaN or an
    infinity, so a full-length mask is built only when one is there.
    """
    if entries.size == 0 or (math.isfinite(entries.min())
                             and math.isfinite(entries.max())):
        return
    i = int(np.flatnonzero(~np.isfinite(entries))[0])
    where = f"entry {i + 1}"
    if path is not None:
        # the line of entry i: each blank line up to it moves it down one
        line = i + 1
        for blank in blanks:
            if blank > line:
                break
            line += 1
        where = f"{path}:{line}"
    raise ValueError(f"{where} is {entries[i]}, not finite")


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
# entries whose squares are split into limbs at a time
_BLOCK = 2 ** 13


def scaled_tail_sqs(x, n_values) -> list[tuple[float, int]]:
    """(S, e) with sigma_n(x)**2 = S * 2**(2e), for each n of ``n_values``.

    The tail past the n largest magnitudes is scaled by 2**-e, with e the
    binary exponent of its largest entry, so that entry lands in [0.5, 1).
    S is ``math.fsum`` of the tail's rounded squares (a * 2**-e)**2: their
    sum rounded once.  sigma_n**2 = ldexp(S, 2e) and sigma_n =
    ldexp(sqrt(S), e) both come from it, so sigma_n**2 is not the square of
    a rounded root.  n at or beyond the support, or a tail of zeros, gives
    (0.0, 0).  ``n_values`` may be unsorted and repeat.

    Every tail is a prefix of the ascending sort of |x|, which is copied
    and sorted once and handed to ``sorted_tail_sqs``.  Besides x, the copy's
    8 bytes per entry and one block of ``_BLOCK`` entries are held.
    """
    a = np.abs(as_sequence(x).entries)
    a.sort()
    return sorted_tail_sqs(a, n_values)


def sorted_tail_sqs(a: np.ndarray, n_values) -> list[tuple[float, int]]:
    """``scaled_tail_sqs`` of the ascending, finite, nonnegative array ``a``.

    A positive entry a = f * 2**k (f in [0.5, 1)) has the rounded square
    fl(f*f) * 2**(2k), where Q = fl(f*f) * 2**54 is an integer below 2**54.
    Where a * 2**-e >= 2**-511, its scaled square is normal and equals
    Q * 2**(2k - 54 - 2e) exactly.  Q is split into three 18-bit limbs.  k
    is nondecreasing along ``a``, so the entries sharing a k are one
    contiguous run, which starts at the first entry >= 2**(k-1): one
    ``np.searchsorted`` per exponent finds every run.  The limb sums are
    kept only at the indices a tail reads: the run starts and each n's
    first normal square and end.  Q and its limbs are formed one block of
    ``_BLOCK`` entries at a time; the block ends are cuts too, so each block
    adds the limb sums of its segments to the running sums at its cuts,
    integers exact below 2**63.  One subtraction gives each run's limb sums
    within the tail, exact in a float while below 2**53, that is for fewer
    than 2**35 entries.  Each limb sum times its power of two is exact, so
    one short ``math.fsum`` per n, over those terms and the squares below
    2**-1022 (a sorted prefix of the tail, usually empty, squared as they
    are), rounds the same exact total: the result does not depend on the
    grid.  ``a`` is only read; besides it, one block is held, 44 bytes per
    entry of it (the mantissas, exponents, Q and three limbs), and the cuts.
    """
    n_values = [int(n) for n in n_values]
    for n in n_values:
        if n < 0:
            raise ValueError(f"n must be >= 0, got {n}")
    pos = a[int(np.searchsorted(a, 0.0, side="right")):]
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
    # the first index of each run of equal k, from one probe per exponent
    ks = np.arange(math.frexp(float(pos[0]))[1],
                   math.frexp(float(pos[-1]))[1] + 1)
    probes = np.searchsorted(pos, np.ldexp(1.0, ks - 1))
    held = np.append(probes[1:], pos.size) > probes
    starts, run_k = probes[held], ks[held]
    # sorted by Python, not np.unique, whose first call imports numpy.ma
    cuts = np.array(sorted({
        *range(_BLOCK, pos.size, _BLOCK), pos.size, *starts.tolist(),
        *(i for hi, _, lo in tails.values() for i in (lo, hi))}))
    # cum[:, c] = limb sums over the entries before cuts[c]
    cum = np.zeros((3, cuts.size), dtype=np.int64)
    size = min(_BLOCK, pos.size)
    f, q = np.empty(size), np.empty(size, dtype=np.int64)
    limbs = np.empty((3, size), dtype=np.int64)
    for b0 in range(0, pos.size, size):
        m = min(size, pos.size - b0)
        fb, qb, lb = f[:m], q[:m], limbs[:, :m]
        np.frexp(pos[b0:b0 + m], out=(fb, None))
        fb *= fb
        qb[:] = np.ldexp(fb, 54, out=fb)
        np.right_shift(qb, _LIMB_SHIFTS[:, None], out=lb)
        np.bitwise_and(lb, _LIMB_MASK, out=lb)
        # cuts[c0 - 1] = b0; the block's segments end at cuts[c0:c1]
        c0, c1 = np.searchsorted(cuts, (b0, b0 + m)) + 1
        seg = np.add.reduceat(lb, cuts[c0 - 1:c1 - 1] - b0, axis=1)
        cum[:, c0:c1] = cum[:, c0 - 1:c0] + np.cumsum(seg, axis=1)

    out = []
    for n in n_values:
        if n not in tails:
            out.append((0.0, 0))
            continue
        hi, e, lo = tails[n]
        terms = (np.ldexp(pos[:lo], -e) ** 2).tolist()
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
