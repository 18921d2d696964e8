"""Brute-force maximizers of the n-term tail error over weighted lp balls.

Two engines are checked against the analytic bounds:

* ``structure_oracle`` takes the best flat block and, at p > 2, the best
  Hoelder pair.  At p <= 2 a flat block is the worst case (in y = x**p the
  objective is convex on a simplex, so a vertex wins): the oracle is the
  lower envelope, not an independent check.  At p > 2 the worst case is a
  flat block and a Hoelder tail x_j ~ w_j**(-p/(p-2)), which a pair cuts
  after one entry, so a ``certify`` pass at p > 2 is not a proof.
* ``random_search_oracle`` samples random nonincreasing sequences scaled to
  the unit sphere on the first ``max_support`` indices; every sample is a
  valid lower bound.  It is the only engine independent of the envelope.
  It draws and reduces its samples a block of rows at a time, about 2**16
  values (one row where a row is longer), so its memory is one block of
  rows and does not grow with ``iters``.

Both engines are bitwise reproducible given a seed and configuration.

``certify`` and the ``oracle`` command share one pass, ``run_oracles``: at
finite p one ``bounds.run_table``, whose table serves every n's structure
oracle up to the end of that n's bounds row, and one random sample set per
grid: ``random_search_oracle`` takes the whole n grid, and each n's result
equals that of a one-n grid, bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np

from .bounds import _BLOCK, CumulativeWeightTable, _check_p, run_table
from .sequences import CoefficientSequence, sigma_sq_exact
from .weights import WeightModel

__all__ = [
    "OracleConfig",
    "CertificationReport",
    "structure_oracle",
    "random_search_oracle",
    "run_oracles",
    "certify",
]

# rows per batch: a batch draws its supports and its exponential-or-uniform
# choices in one call each, which fixes the stream's batch structure; its
# values are drawn and reduced a block of rows at a time, so memory is one
# block of rows, whatever iters
_BATCH = 32768
_CERTIFY_TOL = 1e-9


@dataclass(frozen=True)
class OracleConfig:
    """Shared oracle configuration; ``m_max=None`` means max(1024, 64n).

    Either is the cap of the bound scan, clipped to a weight file's length.
    The structure oracle scans the bound scan's own range, which at p <= 2
    ends where the bound's proof closed.
    """

    m_max: int | None = None
    iters: int = 20000
    seed: int = 0
    max_support: int = 64

    def __post_init__(self):
        if self.iters < 1:
            raise ValueError(f"iters must be >= 1, got {self.iters}")
        if self.max_support < 1:
            raise ValueError(f"max_support must be >= 1, got {self.max_support}")


def structure_oracle(
    w: WeightModel,
    p: float,
    n: int,
    cfg: OracleConfig,
    *,
    table: CumulativeWeightTable | None = None,
    m_scanned: int | None = None,
) -> tuple[float, CoefficientSequence]:
    """Maximize the squared tail error over two witness families.

    * Flat blocks, at every p: k entries W_k**-1, worth (k-n) / W_k**2, for
      k in [n + 1, m_max] (k <= n is worth 0).
    * Hoelder pairs, at p > 2 only: m entries b, then c at m + 1, for m in
      [n + 1, m_max - 1].  With r = 2p/(p-2) and V_m = W_m (m-n)**(-1/2)
      the pair is worth (V_m**-r + w_{m+1}**-r)**(2/r), at b = y**(1/p) /
      W_m and c = (1-y)**(1/p) / w_{m+1}, y = V_m**-r / (V_m**-r +
      w_{m+1}**-r).  It is a witness only where c <= b, that is
      W_m**p <= (m-n) w_{m+1}**p.

    m_max is the end of the bound scan, ``m_scanned`` of n's bounds row:
    the cap, or at p <= 2 the index where its proof closed, past which no
    flat block is worth more.  A ``table`` comes with that stop: a caller
    that holds a run passes its table and the row's ``m_scanned``; without
    a table both come from ``run_table``.  Past a weight file's end, where
    no k > n is left, the result is 0.0 with an empty witness.  The values
    are compared in logarithms read from the table, used as given (of p,
    covering m_max), so a log-domain table cannot overflow or give NaN;
    the weights are read, once, only for Hoelder pairs.  Returns the best
    squared value with its witness; the value is recomputed from the
    witness through ``sigma_sq_exact``, so the pair is always consistent.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    n = int(n)
    if table is None:
        _check_p(p)
        table, (row,) = run_table(w, p, [n], cfg.m_max)
        m_scanned = row.m_scanned
    elif m_scanned is None:
        raise ValueError("a passed table needs its row's m_scanned")
    elif table.p != p:
        raise ValueError(f"table is for p = {table.p}, not {p}")
    m_max = m_scanned
    if m_max < n + 1:
        return 0.0, CoefficientSequence(np.zeros(0))

    # log((k-n) / W_k**2) for k in [n + 1, m_max]; at a p near 0 log W_k
    # may pass the float64 range: inf, and the value, far below the
    # smallest float, -inf
    log_excess = np.log(np.arange(1, m_max - n + 1, dtype=np.float64))
    with np.errstate(over="ignore"):
        log_W = table.log_W_slice(n + 1, m_max)
        flat = log_excess - 2.0 * log_W
    i = int(np.argmax(flat))
    best = float(flat[i])
    k = n + 1 + i
    entries = np.full(k, math.sqrt(table.inv_sq_slice(k, k)[0]))

    if p > 2 and m_max > n + 1:
        # m in [n + 1, m_max - 1]: drop the last flat block
        r = 2.0 * p / (p - 2.0)
        log_W, log_excess = log_W[:-1], log_excess[:-1]
        log_next = np.log(w.values(m_max)[n + 1:])
        log_V = log_W - 0.5 * log_excess
        pair = (2.0 / r) * np.logaddexp(-r * log_V, -r * log_next)
        pair[p * (log_W - log_next) > log_excess] = -np.inf
        i = int(np.argmax(pair))
        if pair[i] > best:
            # y and 1 - y from one logit, so that they sum to 1 even
            # where r is large
            logit = r * float(log_V[i] - log_next[i])
            b = math.exp(-float(np.logaddexp(0.0, logit)) / p
                         - float(log_W[i]))
            c = math.exp(-float(np.logaddexp(0.0, -logit)) / p
                         - float(log_next[i]))
            entries = np.full(n + 1 + i + 1, b)  # m = n + 1 + i, then c
            entries[-1] = min(b, c)
    witness = CoefficientSequence(entries)
    return sigma_sq_exact(witness, n), witness


def _unit_rows_in_logs(vals: np.ndarray, wrow: np.ndarray,
                       p: float) -> np.ndarray:
    """Rows of vals scaled to unit weighted lp norm, the norm taken in
    logarithms: for rows whose norm is past the float64 range.  At a p
    near 0 the norm's logarithm may pass it too: inf, and the row, far
    below the smallest float, zeros."""
    with np.errstate(divide="ignore"):
        log_vals = np.log(vals)
    log_t = log_vals + np.log(wrow)
    with np.errstate(over="ignore"):
        log_norm = (log_t.max(axis=1, keepdims=True) if math.isinf(p) else
                    np.logaddexp.reduce(p * log_t, axis=1, keepdims=True)
                    / p)
    return np.exp(log_vals - log_norm)


def _unit_rows(vals: np.ndarray, wrow: np.ndarray,
               p: float) -> tuple[np.ndarray, np.ndarray]:
    """Rows of vals scaled to unit weighted lp norm, and the mask of the
    rows that have one (an all-zero row has not).

    A norm past the float64 range comes out inf, or NaN where a product
    overflowed; those rows are normed again in logarithms.
    """
    with np.errstate(over="ignore", invalid="ignore"):
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
    big = ~np.isfinite(norms)
    good = (norms > 0) | big
    unit = vals / np.where(good, norms, 1.0)[:, None]
    unit[big] = _unit_rows_in_logs(vals[big], wrow, p)
    return unit, good


def random_search_oracle(
    w: WeightModel,
    p: float,
    n_values: Sequence[int],
    cfg: OracleConfig,
) -> list[tuple[float, CoefficientSequence]]:
    """Best sigma_n**2 over seeded random unit-sphere samples, per n.

    Samples are nonincreasing mixtures of sorted exponential and uniform
    draws with random support, rescaled to unit weighted lp norm; each one
    is a valid lower bound on the class error.  One sample set of
    ``cfg.iters`` draws serves the whole grid: each batch is drawn and
    normed once and every n keeps its own best row, so the result for an n
    equals that of a one-n grid, bit for bit.  Every sample lives on the
    first support = min(cfg.max_support, known_length) indices, so for
    n >= support each tail is empty: the result is 0.0 with an empty
    witness, and a grid with no n below support draws nothing.  Returns
    one (value, witness) per n, in grid order.

    A batch is drawn and reduced a block of max(1, _BLOCK // support) rows
    at a time, so memory is one block of rows, whatever ``cfg.iters``.  The
    blocks read the stream of one whole-batch draw, and a row replaces an
    n's best only if strictly larger, so the earliest row wins a tie: the
    result is that of one whole-batch reduction, bit for bit.
    """
    if not p > 0:
        raise ValueError(f"p must be positive, got {p}")
    n_values = [int(n) for n in n_values]
    for n in n_values:
        if n < 0:
            raise ValueError(f"n must be >= 0, got {n}")
    support = cfg.max_support
    known = w.known_length
    if known is not None:
        support = min(support, known)
    empty = CoefficientSequence(np.zeros(0))
    # per n below support: the best value so far and its row
    best = {n: (-1.0, None) for n in n_values if n < support}
    if not best:
        return [(0.0, empty) for _ in n_values]
    wrow = w.values(support)

    rng = np.random.default_rng(cfg.seed)
    rows = max(1, _BLOCK // support)
    columns = np.arange(support)[None, :]
    remaining = cfg.iters
    while remaining > 0:
        batch = min(_BATCH, remaining)
        remaining -= batch
        batch_k = rng.integers(1, support + 1, size=batch)
        batch_exp = rng.random(batch) < 0.5
        for start in range(0, batch, rows):
            vals = rng.random((min(rows, batch - start), support))
            k = batch_k[start:start + rows]
            use_exp = batch_exp[start:start + rows, None]
            # -log1p(-u) on the exponential rows only; the others keep u
            for op in (np.negative, np.log1p, np.negative):
                op(vals, out=vals, where=use_exp)
            vals[columns >= k[:, None]] = 0.0
            vals.sort(axis=1)
            vals, good = _unit_rows(vals[:, ::-1], wrow, p)

            # sig = total - head, not a direct tail sum nor a cumsum: each
            # rounds differently and can change which row wins a near-tie
            sq = vals * vals
            total = sq.sum(axis=1)
            for n, (best_val, _) in best.items():
                sig = total - sq[:, :n].sum(axis=1)
                sig[~good] = -1.0
                i = int(np.argmax(sig))
                if sig[i] > best_val:
                    best[n] = (float(sig[i]), vals[i].copy())

    results = {}
    for n, (_, row) in best.items():
        nz = np.nonzero(row)[0] if row is not None else ()
        witness = CoefficientSequence(row[:nz[-1] + 1]) if len(nz) else empty
        results[n] = (sigma_sq_exact(witness, n), witness)
    return [results.get(n, (0.0, empty)) for n in n_values]


def run_oracles(w: WeightModel, p: float, n_values: Sequence[int],
                cfg: OracleConfig) -> list[tuple]:
    """Per n of the grid, in order: (n, bounds row, structure oracle's
    result, random oracle's result).  At finite p one ``run_table`` checks
    every n and m_max first and makes the table and the rows, and each
    structure oracle reads that table up to its row's ``m_scanned``; at
    p = inf the row and the structure result are None.  One
    ``random_search_oracle`` sample set serves the whole grid."""
    n_values = [int(n) for n in n_values]
    table, rows = None, [None] * len(n_values)
    if not math.isinf(p):
        table, rows = run_table(w, p, n_values, cfg.m_max)
    randoms = random_search_oracle(w, p, n_values, cfg)
    return [(n, row,
             None if row is None else structure_oracle(
                 w, p, n, cfg, table=table, m_scanned=row.m_scanned),
             random)
            for n, row, random in zip(n_values, rows, randoms)]


@dataclass(frozen=True)
class CertificationReport:
    """Cross-check of the bound scan against both oracles.

    The containment checks compare against the finite scanned suprema
    (``scan_*``), which are what a finite-support witness can actually
    reach: ``upper_sq`` is infinite when divergent and, on a p = 2
    plateau, may be the limit c**-2 past the scan.
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
    structure_sq: float
    random_sq: float
    checks: tuple[tuple[str, bool], ...]
    passed: bool

    def as_dict(self) -> dict:
        return {**asdict(self), "checks": dict(self.checks)}


def certify(
    w: WeightModel,
    p: float,
    n_values: Sequence[int],
    cfg: OracleConfig | None = None,
) -> list[CertificationReport]:
    """Run bounds, structure oracle, and random oracle; check containment.

    One report per n of the grid, all read from one ``run_oracles`` pass:
    one ``run_table`` and one random sample set, so each n's ``random_sq``
    equals that of a one-n grid.  Each check has a fixed slack of 1e-9,
    the report's ``tol``.  Check failures set the report's ``passed`` flag
    instead of raising, so harnesses can collect every combination before
    deciding.  The structure oracle's two families are flat blocks and, at
    p > 2, Hoelder pairs, over the bound scan's range, whose end, the
    row's ``m_scanned``, is the report's ``m_max``.  At p <= 2
    ``structure_ge_scan_lower`` is an identity: the best flat block is the
    lower envelope of the bound scan.  ``structure_le_upper`` compares with
    ``scan_upper_sq`` whatever the status, the stricter reference: a
    structure witness lies inside the scan, and the limit c**-2 of a p = 2
    plateau, which a ``limit-at-infinity`` row reports, lies past it.
    Past a weight file's end every engine's value is 0.0 and the checks
    pass.  Both envelopes need a finite p, so p = inf is rejected up front.
    """
    if not 0 < p < math.inf:
        raise ValueError(f"certify needs a finite p > 0, got {p}")
    if cfg is None:
        cfg = OracleConfig()
    reports = []
    for n, bounds_result, (structure_sq, _), (random_sq, _) in run_oracles(
            w, p, n_values, cfg):
        checks = (
            ("structure_ge_scan_lower",
             structure_sq >= bounds_result.scan_lower_sq - _CERTIFY_TOL),
            ("structure_le_upper",
             structure_sq <= bounds_result.scan_upper_sq + _CERTIFY_TOL),
            ("random_le_structure",
             random_sq <= structure_sq + _CERTIFY_TOL),
        )
        reports.append(CertificationReport(
            weights=w.spec_string(),
            p=float(p),
            n=n,
            m_max=bounds_result.m_scanned,
            seed=cfg.seed,
            iters=cfg.iters,
            tol=_CERTIFY_TOL,
            bound_status=bounds_result.status,
            lower_sq=bounds_result.lower_sq,
            upper_sq=bounds_result.upper_sq,
            scan_lower_sq=bounds_result.scan_lower_sq,
            scan_upper_sq=bounds_result.scan_upper_sq,
            structure_sq=structure_sq,
            random_sq=random_sq,
            checks=checks,
            passed=all(ok for _, ok in checks),
        ))
    return reports
