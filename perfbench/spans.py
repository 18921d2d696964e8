"""Spans around the public functions of each ``nterm`` layer, from outside.

``Tracer.install`` replaces each listed function with a wrapper that
records a span: name, start, end, parent span and a few counts taken from
the arguments or the result.  A function is replaced under every name that
holds it in any ``nterm`` module, because callers look names up in their own
module; methods are replaced on their class.  Spans stay in memory until
``write``.  ``uninstall`` puts the originals back.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass
class Span:
    name: str
    start_ns: int
    end_ns: int
    parent: int
    attrs: dict


def _structure_m_scanned(a, _result) -> dict:
    """Head lengths the structure oracle scans, resolved from its arguments."""
    from nterm.bounds import default_m_max

    w, n, cfg = a["w"], int(a["n"]), a["cfg"]
    top = cfg.m_max if cfg.m_max is not None else default_m_max(n)
    if w.known_length is not None:
        top = min(top, w.known_length - 1)
    return {"m_scanned": top - max(n, 1) + 1}


# (module, attribute path, span name, counts from (bound arguments, result))
LAYERS = (
    ("nterm.weights", "parse_weight_spec", "weights.parse_weight_spec", None),
    ("nterm.bounds", "build_table", "bounds.build_table",
     lambda a, r: {"elems": int(a["M"]),
                   "log_domain_calls": int(bool(getattr(r, "log_domain",
                                                        False)))}),
    ("nterm.bounds", "CumulativeWeightTable.inv_sq_slice",
     "bounds.inv_sq_slice",
     lambda a, r: {"elems": int(a["m_hi"]) - int(a["m_lo"]) + 1}),
    ("nterm.bounds", "class_bounds", "bounds.class_bounds",
     lambda a, r: {"m_scanned": int(r.m_scanned)}),
    ("nterm.bounds", "class_error_infty", "bounds.class_error_infty",
     lambda a, r: {"terms_summed": int(r.terms_summed)}),
    ("nterm.oracle", "structure_oracle", "oracle.structure_oracle",
     _structure_m_scanned),
    ("nterm.oracle", "random_search_oracle", "oracle.random_search_oracle",
     lambda a, r: {"samples": int(a["cfg"].iters)}),
    ("nterm.oracle", "certify", "oracle.certify", None),
    ("nterm.ratefit", "class_error_samples", "ratefit.class_error_samples",
     None),
    ("nterm.ratefit", "fit_rate", "ratefit.fit_rate", None),
    ("nterm.sequences", "sigma_n_exact", "sequences.sigma_n_exact",
     lambda a, r: {"elems": int(np.size(getattr(a["x"], "entries",
                                                a["x"])))}),
    ("nterm.cli", "parse_argv", "cli.parse_argv", None),
    ("nterm.cli", "run", "cli.run", None),
    ("nterm.cli", "render", "cli.render",
     lambda a, r: {"bytes": len(r.encode("utf-8"))}),
)

WEIGHT_VALUES = "weights.values"


def layer_names() -> set[str]:
    """Every span name, plus ``bench`` for the benchmark's own metrics."""
    return {entry[2] for entry in LAYERS} | {WEIGHT_VALUES, "bench"}


class Tracer:
    """Records nested spans of one thread while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name: str, counts):
        sig = inspect.signature(fn)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(Span(name, 0, 0, stack[-1] if stack else -1, {}))
            stack.append(idx)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                spans[idx].start_ns, spans[idx].end_ns = start, end
            if counts is not None:
                spans[idx].attrs = counts(
                    sig.bind(*args, **kwargs).arguments, result)
            return result

        return wrapper

    def _replace(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items()
                   if name == "nterm" or name.startswith("nterm.")]
        for mod_name, path, name, counts in LAYERS:
            owner = sys.modules.get(mod_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            fn = getattr(owner, attr, None)
            if fn is None:
                self.missing.append(f"{mod_name}.{path}")
                continue
            wrapper = self._wrap(fn, name, counts)
            if outer:
                self._replace(owner, attr, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        self._replace(mod, key, wrapper)

        weights = sys.modules["nterm.weights"]
        for cls in vars(weights).values():
            if (isinstance(cls, type) and issubclass(cls, weights.WeightModel)
                    and "values" in cls.__dict__):
                self._replace(cls, "values", self._wrap(
                    cls.__dict__["values"], WEIGHT_VALUES,
                    lambda a, r: {"elems": int(a["m"])}))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def write(self, path: Path) -> None:
        with path.open("w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "parent": s.parent,
                                     "name": s.name, "start_ns": s.start_ns,
                                     "end_ns": s.end_ns, **s.attrs}) + "\n")


def layer_totals(spans: list[Span], lo: int, hi: int) -> dict:
    """Per span name: calls, inclusive and self seconds, summed counts.

    Self time is a span's duration minus the durations of its direct
    children; spans of one thread nest, so children never overlap.
    """
    child_ns: dict[int, int] = defaultdict(int)
    for s in spans[lo:hi]:
        if s.parent >= lo:
            child_ns[s.parent] += s.end_ns - s.start_ns
    totals: dict = defaultdict(lambda: defaultdict(float))
    for i in range(lo, hi):
        s = spans[i]
        t = totals[s.name]
        dur = s.end_ns - s.start_ns
        t["calls"] += 1
        t["s"] += dur * 1e-9
        t["self_s"] += (dur - child_ns[i]) * 1e-9
        for key, value in s.attrs.items():
            t[key] += value
    return totals
