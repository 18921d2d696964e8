import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import nterm.bounds
from nterm import (
    ConstantWeights,
    LogPowerWeights,
    PowLogWeights,
    TabulatedWeights,
)

SRC = Path(__file__).resolve().parent.parent / "src"


def fresh_python(*args: str, **env_vars: str | None) -> bytes:
    """The stdout bytes of a fresh interpreter run with ``args`` and
    ``src/`` first on its path; ``env_vars`` set its environment, None
    removing a variable.

    This process has numpy loaded already, so what an import does to a
    process shows only in a new one.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [x for x in [env.get("PYTHONPATH")] if x])
    for key, value in env_vars.items():
        if value is None:
            env.pop(key, None)
        else:
            env[key] = value
    return subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, check=True).stdout


def builtin_families():
    """The four closed-form models exercised throughout the suite."""
    return {
        "const": ConstantWeights(),
        "logpow:beta=1": LogPowerWeights(1.0),
        "powlog:alpha=1,beta=0": PowLogWeights(1.0, 0.0),
        "powlog:alpha=0.5,beta=-1": PowLogWeights(0.5, -1.0),
    }


def random_monotone_weights(rng: np.random.Generator, size: int) -> TabulatedWeights:
    """A random valid table: 1 + nonnegative increments."""
    steps = rng.exponential(scale=0.5, size=size)
    steps[0] = 0.0
    return TabulatedWeights(1.0 + np.cumsum(steps))


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)


@pytest.fixture
def table_sizes(monkeypatch) -> list[int]:
    """The length of every table ``build_table`` builds during the test."""
    sizes = []
    real = nterm.bounds.build_table

    def counting(w, p, M, *args):
        sizes.append(M)
        return real(w, p, M, *args)

    monkeypatch.setattr(nterm.bounds, "build_table", counting)
    return sizes


@pytest.fixture
def weights_evaluated(monkeypatch) -> list[int]:
    """The length of every array a weight model's ``values`` returns during
    the test."""
    sizes = []
    for cls in (ConstantWeights, LogPowerWeights, PowLogWeights,
                TabulatedWeights):
        def counting(self, m, real=cls.values):
            vals = real(self, m)
            sizes.append(vals.size)
            return vals

        monkeypatch.setattr(cls, "values", counting)
    return sizes
