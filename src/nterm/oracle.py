"""Brute-force maximizers of the n-term tail error over weighted lp balls.

Two independent engines certify the analytic bounds:

* ``structure_oracle`` optimizes over sequences of the form
  (b, ..., b, c, 0, ...) with m leading entries b >= c and one overflow
  entry c.  For p <= 2 this is the shape a worst-case element takes.  For
  p > 2 it is not: the worst case there has a flat block followed by a
  Hoelder tail x_j ~ w_j**(-p/(p-2)), which this family cannot express, so
  a ``certify`` pass at p > 2 is not a proof.  For each m the
  one-dimensional problem in b is solved in closed form: its maximizer is
  one of at most three candidates, evaluated for every m at once (see
  ``structure_oracle``).
* ``random_search_oracle`` samples random nonincreasing sequences scaled to
  the unit sphere on the first ``max_support`` indices; every sample is a
  valid lower bound.

Both engines are bitwise reproducible given a seed and configuration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .bounds import (
    STATUS_ATTAINED,
    STATUS_LIMIT,
    BoundResult,
    CumulativeWeightTable,
    build_table,
    class_bounds,
    default_m_max,
)
from .sequences import CoefficientSequence, sigma_sq_exact
from .weights import WeightModel

__all__ = [
    "OracleConfig",
    "CertificationReport",
    "structure_oracle",
    "random_search_oracle",
    "certify",
]

_BATCH = 32768


@dataclass(frozen=True)
class OracleConfig:
    """Shared oracle configuration; ``m_max=None`` means max(1024, 64n)."""

    m_max: int | None = None
    iters: int = 20000
    seed: int = 0
    max_support: int = 64

    def __post_init__(self):
        if self.iters < 1:
            raise ValueError(f"iters must be >= 1, got {self.iters}")
        if self.max_support < 1:
            raise ValueError(f"max_support must be >= 1, got {self.max_support}")


def _resolve_m_max(cfg: OracleConfig, n: int, w: WeightModel) -> int:
    m_max = cfg.m_max if cfg.m_max is not None else default_m_max(n)
    known = w.known_length
    if known is not None:
        m_max = min(m_max, known - 1)  # the scan also reads w_{m+1}
    if m_max < n + 1:
        raise ValueError(f"m_max must be >= n + 1, got {m_max} < {n + 1}")
    return int(m_max)


def _softplus(x):
    """log(1 + exp(x)); -_softplus(-L) is the log of the logistic of L."""
    return np.logaddexp(0.0, x)


def structure_oracle(
    w: WeightModel,
    p: float,
    n: int,
    cfg: OracleConfig,
    *,
    table: CumulativeWeightTable | None = None,
) -> tuple[float, CoefficientSequence]:
    """Maximize the squared tail error over the structured witness family.

    With b = s / W_m, head length m and overflow entry c = min(b, rho *
    (1 - s**p)**(1/p) / W_m), where rho = W_m / w_{m+1}, the squared error is
    W_m**-2 * h(s) with h(s) = (m-n) s**2 + min(s, rho (1 - s**p)**(1/p))**2
    on [0, 1].  In u = s**p, with u_c = rho**p / (1 + rho**p):

    * on u <= u_c, h = (m-n+1) u**(2/p), which increases;
    * on u >= u_c, h = g(u) = (m-n) u**(2/p) + rho**2 (1-u)**(2/p).  For
      p <= 2, g is convex, so its maximum sits at u_c or at 1.  For p > 2 it
      is concave and peaks at u* = K / (1+K), K = (rho**2/(m-n))**(p/(2-p)),
      clipped to [u_c, 1] (for m = n, K = 0 and the clip gives u_c).

    The best of these candidates is taken for every m at once.  rho, u and
    K are carried as logarithms and logits, so neither rho**p nor an
    underflowing W_m**-2 of a log-domain table can overflow or produce NaN.

    Returns the best squared value together with the witness sequence; the
    value is recomputed from the witness through ``sigma_sq_exact``, so the
    pair is always self-consistent.
    """
    if not 0 < p < math.inf:
        raise ValueError(f"p must be finite and positive, got {p}")
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    n = int(n)
    m_max = _resolve_m_max(cfg, n, w)
    if table is None or table.length < m_max or table.p != p:
        table = build_table(w, p, m_max)
    wvals = w.values(m_max + 1)

    m_lo = max(n, 1)
    log_W = table.log_W_slice(m_lo, m_max)
    log_rho = log_W - np.log(wvals[m_lo:m_max + 1])
    excess = np.arange(m_lo - n, m_max - n + 1, dtype=np.float64)  # m - n
    log_excess = np.log(
        excess, out=np.full_like(excess, -np.inf), where=excess > 0)

    # candidates as logits of u, with log h at each: u_c, 1, clip(u*)
    logit_c = p * log_rho
    logits = [logit_c, np.full_like(excess, np.inf)]
    log_h = [np.log1p(excess) - (2.0 / p) * _softplus(-logit_c), log_excess]
    if p > 2:
        logit_star = np.maximum(
            (p / (2.0 - p)) * (2.0 * log_rho - log_excess), logit_c)
        logits.append(logit_star)
        log_h.append(np.logaddexp(
            log_excess - (2.0 / p) * _softplus(-logit_star),
            2.0 * log_rho - (2.0 / p) * _softplus(logit_star)))
    log_h = np.array(log_h)
    i = int(np.argmax(log_h.max(axis=0) - 2.0 * log_W))
    best_m = m_lo + i
    best_logit = logits[int(np.argmax(log_h[:, i]))][i]
    best_s = math.exp(-float(_softplus(-best_logit)) / p)

    w_inv_star = math.sqrt(table.inv_sq(best_m))
    b = best_s * w_inv_star
    v = max(0.0, 1.0 - best_s ** p) ** (1.0 / p)
    c = min(b, v / float(wvals[best_m]))
    entries = np.full(best_m + 1, b)
    entries[-1] = c
    if c == 0.0:
        entries = entries[:-1]
    witness = CoefficientSequence(entries)
    return sigma_sq_exact(witness, n), witness


def random_search_oracle(
    w: WeightModel,
    p: float,
    n: int,
    cfg: OracleConfig,
) -> tuple[float, CoefficientSequence]:
    """Best sigma_n**2 over seeded random unit-sphere samples.

    Samples are nonincreasing mixtures of sorted exponential and uniform
    draws with random support, rescaled to unit weighted lp norm; each one
    is a valid lower bound on the class error.  Every sample lives on the
    first support = min(cfg.max_support, known_length) indices, so for
    n >= support each tail is empty: the result is 0.0 with an empty
    witness, returned without drawing.
    """
    if not p > 0:
        raise ValueError(f"p must be positive, got {p}")
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    n = int(n)
    support = cfg.max_support
    known = w.known_length
    if known is not None:
        support = min(support, known)
    wrow = w.values(support)
    if n >= support:
        return 0.0, CoefficientSequence(np.zeros(0))

    rng = np.random.default_rng(cfg.seed)
    best_val = -1.0
    best_row: np.ndarray | None = None
    remaining = cfg.iters
    while remaining > 0:
        batch = min(_BATCH, remaining)
        remaining -= batch
        k = rng.integers(1, support + 1, size=batch)
        use_exp = (rng.random(batch) < 0.5)[:, None]
        vals = rng.random((batch, support))
        # -log1p(-u) on the exponential rows only; the others keep u
        for op in (np.negative, np.log1p, np.negative):
            op(vals, out=vals, where=use_exp)
        vals[np.arange(support)[None, :] >= k[:, None]] = 0.0
        vals.sort(axis=1)
        vals = vals[:, ::-1]

        t = vals * wrow[None, :]
        if math.isinf(p):
            norms = t.max(axis=1)
        elif p == 1.0:
            norms = t.sum(axis=1)
        elif p == 2.0:
            norms = np.sqrt((t * t).sum(axis=1))
        else:
            # scaled in place by the row maximum, so that t ** p cannot
            # overflow
            top = t.max(axis=1)
            t /= np.where(top > 0, top, 1.0)[:, None]
            norms = top * np.power(t, p, out=t).sum(axis=1) ** (1.0 / p)
        good = norms > 0
        vals = vals / np.where(good, norms, 1.0)[:, None]

        # sig = total - head, not a direct tail sum: the two round
        # differently and can change which row wins a near-tie
        sq = np.multiply(vals, vals, out=t)
        sig = sq.sum(axis=1)
        if n > 0:
            sig -= sq[:, :n].sum(axis=1)
        sig[~good] = -1.0
        i = int(np.argmax(sig))
        if sig[i] > best_val:
            best_val = float(sig[i])
            best_row = vals[i].copy()

    if best_row is None:
        witness = CoefficientSequence(np.zeros(0))
    else:
        nz = np.nonzero(best_row)[0]
        witness = CoefficientSequence(
            best_row[:nz[-1] + 1] if nz.size else np.zeros(0))
    return sigma_sq_exact(witness, n), witness


@dataclass(frozen=True)
class CertificationReport:
    """Cross-check of the bound scan against both oracles.

    For non-finite classifications the containment checks compare against
    the finite scanned suprema (``scan_*``), which are what a finite-support
    witness can actually reach.
    """

    weights: str
    p: float
    n: int
    m_max: int
    seed: int
    iters: int
    tol: float
    bound_status: str
    lower_sq: float
    upper_sq: float
    scan_lower_sq: float
    scan_upper_sq: float
    limit_estimate: float | None
    structure_sq: float
    random_sq: float
    checks: tuple[tuple[str, bool], ...]
    passed: bool

    def as_dict(self) -> dict:
        return {
            "weights": self.weights,
            "p": self.p,
            "n": self.n,
            "m_max": self.m_max,
            "seed": self.seed,
            "iters": self.iters,
            "tol": self.tol,
            "bound_status": self.bound_status,
            "lower_sq": self.lower_sq,
            "upper_sq": self.upper_sq,
            "scan_lower_sq": self.scan_lower_sq,
            "scan_upper_sq": self.scan_upper_sq,
            "limit_estimate": self.limit_estimate,
            "structure_sq": self.structure_sq,
            "random_sq": self.random_sq,
            "checks": {name: ok for name, ok in self.checks},
            "passed": self.passed,
        }


def certify(
    w: WeightModel,
    p: float,
    n: int,
    cfg: OracleConfig | None = None,
    *,
    tol: float = 1e-9,
) -> CertificationReport:
    """Run bounds, structure oracle, and random oracle; check containment.

    Check failures set the report's ``passed`` flag instead of raising, so
    harnesses can collect every combination before deciding.
    """
    if cfg is None:
        cfg = OracleConfig()
    m_max = _resolve_m_max(cfg, n, w)
    cfg = replace(cfg, m_max=m_max)

    table = build_table(w, p, m_max)
    bounds_result: BoundResult = class_bounds(w, p, n, m_max=m_max,
                                              table=table)
    structure_sq, _ = structure_oracle(w, p, n, cfg, table=table)
    random_sq, _ = random_search_oracle(w, p, n, cfg)

    upper_ref = bounds_result.upper_sq
    if bounds_result.status not in (STATUS_ATTAINED, STATUS_LIMIT):
        upper_ref = bounds_result.scan_upper_sq
    checks = (
        ("structure_ge_scan_lower",
         structure_sq >= bounds_result.scan_lower_sq - tol),
        ("structure_le_upper", structure_sq <= upper_ref + tol),
        ("random_le_structure", random_sq <= structure_sq + tol),
    )
    return CertificationReport(
        weights=w.spec_string(),
        p=float(p),
        n=int(n),
        m_max=m_max,
        seed=cfg.seed,
        iters=cfg.iters,
        tol=tol,
        bound_status=bounds_result.status,
        lower_sq=bounds_result.lower_sq,
        upper_sq=bounds_result.upper_sq,
        scan_lower_sq=bounds_result.scan_lower_sq,
        scan_upper_sq=bounds_result.scan_upper_sq,
        limit_estimate=bounds_result.limit_estimate,
        structure_sq=structure_sq,
        random_sq=random_sq,
        checks=checks,
        passed=all(ok for _, ok in checks),
    )
