"""Empirical decay-rate extraction from computed error bounds.

``fit_rate`` does least squares on ``log sigma = C - r log n - s loglog(n+1)``
and reports the fitted exponents with the RMS residual in log space.  The
joint (r, s) fit is ill-conditioned because loglog n varies slowly, so the
usual workflow pins s to the predicted log exponent and fits r alone; the
joint fit stays available for diagnostics.

``class_error_samples`` produces the (n, sigma) pairs from the rows of one
``bounds.run_table`` run: sqrt of the upper envelope on rows that prove it
a bound (``attained`` or ``limit-at-infinity``, p <= 2 only), and at p = oo
sqrt of the tail sum on every row but a ``divergent`` one.  It refuses any
other row with one message at every p.  Either envelope has the same
asymptotics, as the gap between them is at most W_n**-2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .bounds import (
    STATUS_ATTAINED,
    STATUS_CONVERGED,
    STATUS_LIMIT,
    STATUS_TRUNCATED,
    run_table,
)
from .weights import RatePrediction, WeightModel

__all__ = [
    "RateFit",
    "fit_rate",
    "ratio_envelope",
    "class_error_samples",
    "dyadic_grid",
]


@dataclass(frozen=True)
class RateFit:
    """Fitted sigma_n ~ exp(intercept) * n**(-poly) * log(n+1)**(-log_exp)."""

    poly_exponent: float
    log_exponent: float
    intercept: float
    residual_rms: float


def _check_samples(samples) -> tuple[np.ndarray, np.ndarray]:
    ns = np.asarray([s[0] for s in samples], dtype=np.float64)
    sig = np.asarray([s[1] for s in samples], dtype=np.float64)
    if ns.size < 8:
        raise ValueError(f"need at least 8 samples, got {ns.size}")
    if np.any(np.diff(ns) <= 0):
        raise ValueError("sample grid must be strictly increasing in n")
    if np.any(ns < 1):
        raise ValueError("sample grid must have n >= 1")
    if not np.all(np.isfinite(sig)) or np.any(sig <= 0):
        raise ValueError("sigma samples must be finite and positive")
    return ns, sig


def fit_rate(
    samples: Iterable[tuple[int, float]],
    *,
    fixed_log_exponent: float | None = None,
) -> RateFit:
    """Least-squares exponent fit over a strictly increasing n grid.

    s is fitted jointly with r, or pinned to ``fixed_log_exponent`` (0 for
    a pure power law) while r is fitted alone.
    """
    samples = list(samples)
    ns, sig = _check_samples(samples)
    fixed = fixed_log_exponent
    log_n = np.log(ns)
    log_log = np.log(np.log(ns + 1.0))
    y = np.log(sig)

    if fixed is not None:
        cols = [np.ones_like(log_n), -log_n]
        rhs = y + float(fixed) * log_log
    else:
        cols = [np.ones_like(log_n), -log_n, -log_log]
        rhs = y
    design = np.column_stack(cols)
    coef, _, rank, _ = np.linalg.lstsq(design, rhs, rcond=None)
    if rank < design.shape[1]:
        raise ValueError("degenerate (collinear) design matrix")

    intercept = float(coef[0])
    poly = float(coef[1])
    s = float(fixed) if fixed is not None else float(coef[2])
    fitted = intercept - poly * log_n - s * log_log
    residual_rms = float(np.sqrt(np.mean((y - fitted) ** 2)))
    return RateFit(
        poly_exponent=poly,
        log_exponent=s,
        intercept=intercept,
        residual_rms=residual_rms,
    )


def ratio_envelope(
    samples: Iterable[tuple[int, float]],
    prediction: RatePrediction,
) -> tuple[float, float]:
    """(c_min, c_max) of sigma_n * n**r * log(n+1)**s over the grid.

    A bounded envelope with moderate c_max/c_min backs the claim that the
    samples decay at the predicted rate up to constants.
    """
    if not prediction.valid:
        raise ValueError(
            f"prediction invalid ({prediction.validity_condition})")
    samples = list(samples)
    ns, sig = _check_samples(samples)
    env = sig * ns ** prediction.poly_exponent \
        * np.log(ns + 1.0) ** prediction.log_exponent
    return float(env.min()), float(env.max())


def class_error_samples(
    w: WeightModel,
    p: float,
    n_values: Sequence[int],
    *,
    m_max: int | None = None,
) -> list[tuple[int, float]]:
    """sigma_n samples from the bounds engine over an n grid."""
    n_values = [int(n) for n in n_values]
    infty = math.isinf(p)
    proved = ((STATUS_CONVERGED, STATUS_TRUNCATED) if infty
              else (STATUS_ATTAINED, STATUS_LIMIT))
    out = []
    for n, r in zip(n_values, run_table(w, p, n_values, m_max)[1]):
        if r.status not in proved:
            raise ValueError(
                f"no finite bound is proved at n={n} (status {r.status})")
        out.append((n, math.sqrt(r.value_sq if infty else r.upper_sq)))
    return out


def dyadic_grid(lo: int, hi: int) -> list[int]:
    """lo, 2*lo, 4*lo, ... up to hi inclusive."""
    if lo < 1 or hi < lo:
        raise ValueError(f"need 1 <= lo <= hi, got {lo}..{hi}")
    out = []
    v = int(lo)
    while v <= hi:
        out.append(v)
        v *= 2
    return out
