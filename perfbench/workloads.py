"""The benchmark's workloads and the seeded inputs they read.

Every workload is a fixed list of ``nterm`` CLI invocations.  Each one
takes at most about a second of compute, so that a run of the benchmark
holds several samples of each and reports their median.  A few
arguments are filled in per run from the workload seed: the tabulated
weight file, the coefficient-sequence file and the oracle ``--seed``.  The
program sees only these generated inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

# sizes of the generated inputs
WEIGHT_TABLE_LEN = 2 ** 18
SEQUENCE_LEN = 2 * 10 ** 5


@dataclass(frozen=True)
class Invocation:
    """One CLI call; ``check`` names its reference in ``checks.py``."""

    argv: tuple[str, ...]
    check: str | None = None

    @property
    def label(self) -> str:
        return " ".join(self.argv)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    invocations: tuple[Invocation, ...]
    needs_weights: bool = False
    needs_sequence: bool = False


def _inv(text: str, check: str | None = None) -> Invocation:
    return Invocation(tuple(text.split()), check)


WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="envelope",
            why="finite-p envelope scans: build_table and inv_sq_slice do "
                "the work, per-n rebuilds and one shared table, longdouble "
                "and log-domain paths; no oracle",
            invocations=(
                _inv("bounds --weights const --p 1 --n 2^4..2^15:dyadic",
                     "const_p1_bounds"),
                # p * log w exceeds 700 from n = 2^11 on, so the larger
                # tables are kept in log domain and the smaller ones not
                _inv("bounds --weights powlog:alpha=12,beta=0 --p 5 "
                     "--n 2^4..2^12:dyadic", "ordered_bounds"),
                # tabulated path and the heuristic status branch
                _inv("bounds --weights file:{weights} --p 1.5 "
                     "--n 2^4..2^11:dyadic", "ordered_bounds"),
                # one shared table of 1M entries
                _inv("ratefit --weights logpow:beta=1 --p 0.5 "
                     "--n 2^6..2^14:dyadic", "logpow_half_ratefit"),
            ),
            needs_weights=True,
        ),
        Workload(
            name="certify",
            why="oracle cross-checks: structure_oracle dominates, tables "
                "are small, p > 2 reaches the concave branch; witnesses "
                "are rendered",
            invocations=(
                _inv("certify --weights powlog:alpha=1,beta=0 --p 2 "
                     "--n 2^4..2^10:dyadic", "certify_passed"),
                _inv("certify --weights powlog:alpha=0.5,beta=-1 --p 3 "
                     "--n 2^4..2^9:dyadic", "certify_passed"),
                _inv("oracle --weights const --p 1 --n 2^4..2^9:dyadic "
                     "--seed {oracle_seed}", "oracle_order"),
            ),
        ),
        Workload(
            name="tails",
            why="exact tail sums: no table and no oracle, process start "
                "dominates; the side that should not move for table or "
                "oracle changes",
            invocations=(
                _inv("bounds --weights powlog:alpha=1,beta=0 --p inf "
                     "--n 2^4..2^16:dyadic", "trigamma_bounds"),
                # boundary case 2 alpha = 1, 2 beta > 1
                _inv("bounds --weights powlog:alpha=0.5,beta=1 --p inf "
                     "--n 2^4..2^16:dyadic"),
                _inv("ratefit --weights powlog:alpha=1,beta=0 --p inf "
                     "--n 2^6..2^16:dyadic", "trigamma_ratefit"),
                _inv("exact --sequence {sequence} --n 2^4..2^16:dyadic",
                     "exact_fsum"),
            ),
            needs_sequence=True,
        ),
    )
}


@dataclass(frozen=True)
class Inputs:
    """Generated files and values for one run, derived from the seed."""

    seed: int
    weights: str
    sequence: str
    oracle_seed: int
    sizes: dict

    def argv(self, inv: Invocation) -> list[str]:
        fill = {"weights": self.weights, "sequence": self.sequence,
                "oracle_seed": self.oracle_seed}
        return [a.format(**fill) for a in inv.argv] + ["--format", "json"]


def _write_column(path: Path, values: np.ndarray) -> None:
    path.write_text("\n".join(map(repr, values.tolist())) + "\n",
                    encoding="utf-8")


def make_inputs(workload: Workload, seed: int, work: Path,
                root: Path) -> Inputs:
    """Write the workload's input files under ``work`` from ``seed``.

    Paths handed to the program are relative to ``root``, the directory
    the invocations run in.
    """
    w_seq, x_seq, o_seq = np.random.SeedSequence(seed).spawn(3)
    weights = work / "weights.txt"
    sequence = work / "sequence.txt"
    sizes = {}
    if workload.needs_weights:
        # a random monotone table, as tests/conftest.py builds one
        steps = np.random.default_rng(w_seq).exponential(
            scale=0.5, size=WEIGHT_TABLE_LEN)
        steps[0] = 0.0
        _write_column(weights, 1.0 + np.cumsum(steps))
        sizes["weight_table_len"] = WEIGHT_TABLE_LEN
    if workload.needs_sequence:
        _write_column(sequence, np.random.default_rng(x_seq).standard_normal(
            SEQUENCE_LEN))
        sizes["sequence_len"] = SEQUENCE_LEN
    oracle_seed = int(np.random.default_rng(o_seq).integers(0, 2 ** 31))
    return Inputs(seed=seed,
                  weights=str(weights.relative_to(root)),
                  sequence=str(sequence.relative_to(root)),
                  oracle_seed=oracle_seed, sizes=sizes)
