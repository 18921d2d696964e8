"""Concrete coefficient sequences and their exact n-term tail errors.

A sequence is a finite list of real coefficients (index 1 first) with an
implicit zero tail.  The best n-term approximation in the euclidean norm
keeps the n largest magnitudes, so the exact error is the l2 norm of the
remaining tail of the decreasing rearrangement.  All operations are pure
functions on immutable inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bounds import build_table
from .weights import WeightModel

__all__ = [
    "CoefficientSequence",
    "Rearranged",
    "as_sequence",
    "decreasing_rearrangement",
    "weighted_lp_norm",
    "scaled_tail_sq",
    "sigma_n_exact",
    "sigma_tail_profile",
    "extremal_sequence",
    "flatten_head",
]


@dataclass(frozen=True, eq=False)
class CoefficientSequence:
    """Finite-support coefficient sequence; zero beyond ``support_len``."""

    entries: np.ndarray

    def __post_init__(self):
        arr = np.array(self.entries, dtype=np.float64).reshape(-1)
        arr.setflags(write=False)
        object.__setattr__(self, "entries", arr)

    @property
    def support_len(self) -> int:
        return int(self.entries.size)

    def __len__(self) -> int:
        return self.support_len

    def __repr__(self) -> str:
        return f"CoefficientSequence({self.entries.tolist()!r})"


@dataclass(frozen=True, eq=False)
class Rearranged:
    """Magnitudes sorted nonincreasing plus the rank -> source position map."""

    values: np.ndarray
    source_perm: np.ndarray


def as_sequence(x) -> CoefficientSequence:
    """Coerce array-likes, ``Rearranged``, or pass a sequence through."""
    if isinstance(x, CoefficientSequence):
        return x
    if isinstance(x, Rearranged):
        return CoefficientSequence(x.values)
    return CoefficientSequence(np.asarray(x, dtype=np.float64))


def decreasing_rearrangement(x) -> Rearranged:
    """Sort |x| nonincreasing; ties keep ascending original (0-based) index."""
    a = np.abs(as_sequence(x).entries)
    perm = np.argsort(-a, kind="stable")
    values = a[perm]
    values.setflags(write=False)
    return Rearranged(values=values, source_perm=perm)


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


def _unit_scaled(a: np.ndarray) -> tuple[np.ndarray, int]:
    """a * 2**-e with e the binary exponent of max(a), and e.

    The largest entry lands in [0.5, 1), so squares of the scaled entries
    neither overflow nor underflow unless an entry is below 2**-511 of the
    largest.  The scaling is a power of two and exact for normal results.
    """
    e = math.frexp(float(a.max()))[1] if a.size else 0
    return np.ldexp(a, -e), e


def scaled_tail_sq(x, n: int) -> tuple[float, int]:
    """(S, e) with sigma_n(x)**2 = S * 2**(2e), for the exact l2 error.

    The tail past the n largest magnitudes is scaled by 2**-e, as in
    ``_unit_scaled``, and its squares are summed with ``math.fsum``, which
    rounds the sum once.  sigma_n**2 = ldexp(S, 2e) and sigma_n =
    ldexp(sqrt(S), e) both come from this one pass, so sigma_n**2 is not
    the square of a rounded root.  n at or beyond the support gives (0.0, 0).
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    a = np.sort(np.abs(as_sequence(x).entries))  # ascending
    keep = a.size - int(n)
    if keep <= 0:
        return 0.0, 0
    tail, e = _unit_scaled(a[:keep])
    return math.fsum((tail * tail).tolist()), e


def sigma_n_exact(x, n: int) -> float:
    """Exact l2 error after keeping the n largest magnitudes.

    n = 0 gives the full l2 norm; n at or beyond the support gives 0.  The
    tail is accumulated smallest magnitude first with exact summation, so
    permutations of x produce bit-identical results.  The tail is scaled by
    a power of two before squaring and the root scaled back, so scaling x by
    2**k scales the result by exactly 2**k, as long as every 2**k * x_j is
    exact and neither result is subnormal.  A subnormal result carries fewer
    bits, so there the identity can fail.
    """
    s, e = scaled_tail_sq(x, n)
    return math.ldexp(math.sqrt(s), e)


def sigma_tail_profile(x) -> np.ndarray:
    """sigma_n**2 for n = 0..support_len in one pass of suffix sums."""
    a, e = _unit_scaled(np.sort(np.abs(as_sequence(x).entries)))
    sq = (a * a).astype(np.longdouble)
    prefix = np.concatenate([[np.longdouble(0.0)], np.cumsum(sq)])
    return np.ldexp(prefix[::-1], 2 * e).astype(np.float64)


def extremal_sequence(w: WeightModel, p: float, m: int) -> CoefficientSequence:
    """m equal entries 1/W_m: a unit-sphere element of the weighted lp ball."""
    if math.isinf(p):
        raise ValueError("p must be finite")
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    m = int(m)
    W = build_table(w, p, m).W(m)
    return CoefficientSequence(np.full(m, 1.0 / W))


def flatten_head(x, n: int) -> CoefficientSequence:
    """Replace the first n magnitudes by the n-th largest; keep the tail.

    Requires the input to be nonincreasing in magnitude already.  The result
    never has a larger weighted lp norm than the input (weights are
    nondecreasing) and has the same sigma_n.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    v = np.abs(as_sequence(x).entries)
    if np.any(np.diff(v) > 0):
        raise ValueError("input must be nonincreasing in magnitude")
    n = int(n)
    if n >= v.size:
        head_val = v[n - 1] if n == v.size else 0.0
        return CoefficientSequence(np.full(v.size, head_val))
    out = v.copy()
    out[:n] = v[n - 1]
    return CoefficientSequence(out)
