"""Weight sequences for weighted lp sequence-space balls.

A weight model is a nondecreasing sequence 1 <= w_1 <= w_2 <= ... that can
be evaluated at any index j >= 1.  Four families are built in:

* ``ConstantWeights()``          -- w_j = 1
* ``LogPowerWeights(beta)``      -- w_j = (1 + ln j)**beta, beta >= 0
* ``PowLogWeights(alpha, beta)`` -- w_j = max_{i<=j} i**alpha * log2(i+1)**beta
* ``TabulatedWeights(values)``   -- explicit finite table

``PowLogWeights`` applies a running maximum so the sequence is nondecreasing
for every real beta; the base-2 logarithm makes the first weight exactly 1
for all parameter choices.  ``values(m)`` returns finite, nondecreasing
w_1..w_m >= 1 or raises a ``ValueError`` naming the first weight that is not
finite; constructors check only w_1..w_1024 (``WeightValidationError``).
``predicted_rate`` maps a closed-form family and an exponent p to the
polynomial/logarithmic decay exponents expected of the worst-case n-term
error, plus the hypotheses under which the prediction holds.

Models can also be written as short text specs (``const``,
``logpow:beta=1``, ``powlog:alpha=1,beta=0``, ``file:weights.txt``) for CLI
and config use; see ``parse_weight_spec``.

``read_number_lines`` reads both input files, weight tables and coefficient
sequences, one number per line, into one float64 array of the numbers,
filled a chunk of lines at a time once a first pass has counted them, and a
list of the blank lines' numbers.  A weight file's table keeps that array
as it is, so each weight is held once.  A sequence drops blank lines; a
weight table may only end in them.  Errors name ``PATH:LINE``: exit 2 in a
weight file and 3 in a sequence file at the CLI, where a file that cannot
be read is exit 4.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "WeightModel",
    "ConstantWeights",
    "LogPowerWeights",
    "PowLogWeights",
    "TabulatedWeights",
    "RatePrediction",
    "WeightValidationError",
    "UnsupportedFamilyError",
    "WeightSpecError",
    "NotANumberError",
    "predicted_rate",
    "parse_weight_spec",
    "read_number_lines",
]


class WeightValidationError(ValueError):
    """A weight sequence is not finite, not nondecreasing or starts below 1."""

    def __init__(self, message: str, index: int | None = None):
        super().__init__(message)
        self.index = index


class UnsupportedFamilyError(ValueError):
    """Operation needs a closed-form family but got something else."""


class WeightSpecError(ValueError):
    """A textual weight spec could not be parsed."""


class NotANumberError(ValueError):
    """A line of an input file is neither blank nor a number."""


def _check_values(vals: np.ndarray) -> None:
    """Raise unless w_1..w_m are finite, start at 1 or above and never
    decrease.  Each test holds one bool per weight, no float64 array."""
    if not np.isfinite(vals).all():
        j = int(np.argmin(np.isfinite(vals))) + 1
        raise WeightValidationError(
            f"w_{j} = {vals[j - 1]} is not finite", index=j)
    if vals[0] < 1.0:
        raise WeightValidationError(
            f"w_1 = {vals[0]} is below 1", index=1)
    drops = vals[1:] < vals[:-1]
    if drops.any():
        j = int(np.argmax(drops)) + 2
        raise WeightValidationError(
            f"weights decrease at index {j}", index=j)


def _finite(vals: np.ndarray, first: int = 1) -> np.ndarray:
    """Return nondecreasing weights w_first.., or raise naming the first
    that is not finite.  NaN survives a running maximum, so the last
    weight decides for all."""
    if not math.isfinite(vals[-1]):
        j = int(np.argmin(np.isfinite(vals))) + first
        raise ValueError(f"weight w_{j} is not finite")
    return vals


class WeightModel:
    """Base class; concrete families implement ``values``."""

    def values(self, m: int) -> np.ndarray:
        """Return w_1..w_m as a new float64 array the caller may modify:
        finite, nondecreasing and >= 1, or a ValueError naming the first
        weight that is not finite."""
        raise NotImplementedError

    @property
    def known_length(self) -> int | None:
        """Largest evaluable index, or None when unbounded."""
        return None

    @property
    def asymptotic_exponents(self) -> tuple[float, float] | None:
        """(a, b) with W_m growing like m**(a + 1/p) * (log m)**b, if known."""
        return None

    def spec_string(self) -> str:
        raise NotImplementedError

    def _check(self) -> None:
        """Verify w_1..w_1024, the shortest default scan."""
        try:
            vals = self.values(1024)
        except ValueError as exc:
            raise WeightValidationError(str(exc)) from None
        _check_values(vals)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.spec_string()!r})"


class ConstantWeights(WeightModel):
    """w_j = 1 for every j."""

    def values(self, m: int) -> np.ndarray:
        if m < 1:
            raise ValueError(f"m must be >= 1, got {m}")
        return np.ones(int(m))

    @property
    def asymptotic_exponents(self) -> tuple[float, float]:
        return (0.0, 0.0)

    def spec_string(self) -> str:
        return "const"


class LogPowerWeights(WeightModel):
    """w_j = (1 + ln j)**beta with beta >= 0."""

    def __init__(self, beta: float):
        self.beta = float(beta)
        if not math.isfinite(self.beta):
            raise WeightValidationError(
                f"logpow requires finite beta, got {self.beta}")
        if self.beta < 0:
            # (1 + ln j)**beta decreases for beta < 0
            raise WeightValidationError(
                f"logpow requires beta >= 0, got {self.beta}"
                " (weights would decrease at index 2)", index=2)
        self._check()

    def values(self, m: int) -> np.ndarray:
        if m < 1:
            raise ValueError(f"m must be >= 1, got {m}")
        w = np.arange(1, int(m) + 1, dtype=np.float64)
        np.log(w, out=w)
        w += 1.0
        with np.errstate(over="ignore"):
            w **= self.beta
        return _finite(w)

    @property
    def asymptotic_exponents(self) -> tuple[float, float]:
        return (0.0, self.beta)

    def spec_string(self) -> str:
        return f"logpow:beta={self.beta!r}"


class PowLogWeights(WeightModel):
    """Running maximum of i**alpha * log2(i+1)**beta.

    The running maximum keeps the sequence nondecreasing for beta < 0, where
    the raw formula dips before the power term takes over.
    """

    def __init__(self, alpha: float, beta: float):
        self.alpha = float(alpha)
        self.beta = float(beta)
        if not (math.isfinite(self.alpha) and math.isfinite(self.beta)):
            # an infinite exponent flattens the weights to 1 while
            # asymptotic_exponents still reports it
            raise WeightValidationError(
                f"powlog requires finite alpha and beta, got "
                f"alpha={self.alpha}, beta={self.beta}")
        self._check()

    def raw_value(self, j) -> np.ndarray:
        """Formula value i**alpha * log2(i+1)**beta without the running max,
        written over j when j is a float64 array.  Where one factor
        underflows to 0 and the other overflows, the product is NaN: only
        those entries are summed in logarithms instead.
        """
        j = np.asarray(j, dtype=np.float64)
        log_factor = np.add(j, 1.0, out=np.empty_like(j))
        np.log2(log_factor, out=log_factor)
        log_factor **= self.beta
        # j is kept only where a NaN can arise
        keep = (j.copy() if log_factor.min() == 0.0
                or log_factor.max() == math.inf else None)
        j **= self.alpha
        j *= log_factor
        if keep is not None:
            nan = np.isnan(j)
            k = keep[nan]
            j[nan] = np.exp(self.alpha * np.log(k)
                            + self.beta * np.log(np.log2(k + 1.0)))
        return j

    def values(self, m: int) -> np.ndarray:
        if m < 1:
            raise ValueError(f"m must be >= 1, got {m}")
        j = np.arange(1, int(m) + 1, dtype=np.float64)
        # a large alpha overflows to inf, and inf * 0 gives NaN until
        # raw_value sums those entries in logarithms
        with np.errstate(over="ignore", invalid="ignore"):
            w = self.raw_value(j)
        return _finite(np.maximum.accumulate(w, out=w))

    @property
    def asymptotic_exponents(self) -> tuple[float, float]:
        if self.alpha > 0:
            return (self.alpha, self.beta)
        if self.alpha == 0 and self.beta > 0:
            return (0.0, self.beta)
        # formula tends to 0 or stays flat: running max is constant
        return (0.0, 0.0)

    def spec_string(self) -> str:
        return f"powlog:alpha={self.alpha!r},beta={self.beta!r}"


class TabulatedWeights(WeightModel):
    """Explicit weight table, index 1 first; validated exhaustively.

    The table is read-only.  It holds a copy of a caller's ``values``, so
    that the caller cannot change a validated table; a weight file's table
    keeps the array ``read_number_lines`` made, which nothing else holds,
    as it is.  ``values(m)`` hands out copies.
    """

    def __init__(self, values: Sequence[float], source: str | None = None):
        self._keep(np.array(values, dtype=np.float64).reshape(-1), source)

    @classmethod
    def _of_file(cls, values: np.ndarray, source: str) -> TabulatedWeights:
        """The table of a weight file, keeping the reader's ``values``."""
        table = cls.__new__(cls)
        table._keep(values, source)
        return table

    def _keep(self, arr: np.ndarray, source: str | None) -> None:
        if arr.size == 0:
            raise WeightValidationError("weight table is empty")
        _check_values(arr)
        arr.setflags(write=False)
        self._values = arr
        self._source = source

    def values(self, m: int) -> np.ndarray:
        if m < 1:
            raise ValueError(f"m must be >= 1, got {m}")
        if m > self._values.size:
            raise ValueError(
                f"tabulated weights defined only up to index "
                f"{self._values.size}, requested {m}")
        return self._values[:int(m)].copy()

    @property
    def known_length(self) -> int:
        return int(self._values.size)

    def spec_string(self) -> str:
        if self._source is not None:
            return f"file:{self._source}"
        return f"tabulated[{self._values.size}]"


@dataclass(frozen=True)
class RatePrediction:
    """Expected decay sigma_n ~ n**(-poly) * (log(n+1))**(-log_exponent).

    ``valid`` reports whether the hypothesis of the rate theorem holds (the
    text of ``validity_condition``), not whether a fit on a finite n grid can
    resolve the exponent.
    """

    poly_exponent: float
    log_exponent: float
    valid: bool
    validity_condition: str


def predicted_rate(w: WeightModel, p: float) -> RatePrediction:
    """Predicted worst-case decay exponents for a built-in family.

    ``valid`` is False when the hypothesis behind the prediction fails; the
    exponents are still reported for diagnostics.  It depends on the family
    and p only, never on how well a fit on a finite grid resolves the
    exponent: const weights at p = 1.9 predict the small exponent 1/p - 1/2
    and are valid, at p = 2 they are not.  Tabulated models carry no closed
    form and are rejected.
    """
    if not p > 0:
        raise ValueError(f"p must be positive, got {p}")
    inv_p = 0.0 if math.isinf(p) else 1.0 / p
    if isinstance(w, (ConstantWeights, LogPowerWeights)):
        beta = 0.0 if isinstance(w, ConstantWeights) else w.beta
        return RatePrediction(
            poly_exponent=inv_p - 0.5,
            log_exponent=beta,
            valid=bool(beta >= 0 and 0 < p < 2),
            validity_condition="beta >= 0 and 0 < p < 2",
        )
    if isinstance(w, PowLogWeights):
        poly = w.alpha + inv_p - 0.5
        return RatePrediction(
            poly_exponent=poly,
            log_exponent=w.beta,
            valid=bool(w.alpha > 0 and poly > 0),
            validity_condition="alpha > 0 and alpha + 1/p - 1/2 > 0",
        )
    raise UnsupportedFamilyError(
        f"no closed-form rate for {type(w).__name__}")


def _parse_params(body: str, spec: str) -> dict[str, float]:
    params: dict[str, float] = {}
    for part in body.split(","):
        if "=" not in part:
            raise WeightSpecError(f"bad parameter {part!r} in {spec!r}")
        key, _, raw = part.partition("=")
        key = key.strip()
        if key in params:
            raise WeightSpecError(f"repeated parameter {key!r} in {spec!r}")
        try:
            params[key] = float(raw)
        except ValueError:
            raise WeightSpecError(
                f"bad numeric value {raw!r} in {spec!r}") from None
    return params


def parse_weight_spec(spec: str) -> WeightModel:
    """Build a validated model from its textual form.

    Accepted forms: ``const``, ``logpow:beta=<f>``,
    ``powlog:alpha=<f>,beta=<f>``, ``file:<path>`` (text file, one weight
    per line, line k is w_k, blank lines only at the end; a file that is
    not UTF-8 text is a ``WeightSpecError`` naming its path).
    """
    spec = spec.strip()
    if spec == "const":
        return ConstantWeights()
    head, sep, body = spec.partition(":")
    if not sep:
        raise WeightSpecError(f"unknown weight spec {spec!r}")
    if head == "logpow":
        params = _parse_params(body, spec)
        if set(params) != {"beta"}:
            raise WeightSpecError(f"logpow takes exactly beta=, got {spec!r}")
        return LogPowerWeights(params["beta"])
    if head == "powlog":
        params = _parse_params(body, spec)
        if set(params) != {"alpha", "beta"}:
            raise WeightSpecError(
                f"powlog takes exactly alpha=,beta=, got {spec!r}")
        return PowLogWeights(params["alpha"], params["beta"])
    if head == "file":
        try:
            values, blanks = read_number_lines(body)
        except NotANumberError as exc:
            raise WeightSpecError(str(exc)) from None
        except UnicodeDecodeError as exc:
            raise WeightSpecError(f"{body}: not UTF-8 text: {exc}") from None
        # blank lines may end the table, and only end it
        if blanks and blanks[0] <= values.size:
            raise WeightSpecError(f"{body}:{blanks[0]}: "
                                  "blank line inside weight table")
        return TabulatedWeights._of_file(values, body)
    raise WeightSpecError(f"unknown weight family {head!r}")


# lines parsed per chunk of ``read_number_lines``
_CHUNK_LINES = 2 ** 14
# characters besides \n at which str.splitlines ends a line; float() strips
# one at either end of a line, so a file holding any is cut by splitlines
_LINE_BREAKS = "\v\f\x1c\x1d\x1e\x1f\x85\u2028\u2029"


def read_number_lines(path: str) -> tuple[np.ndarray, list[int]]:
    """The numbers of a text file, lines cut as ``str.splitlines`` cuts
    its text: a float64 array of the non-blank lines' numbers, in order,
    and the 1-based numbers of the blank lines.

    The file is read twice.  The first pass reads its text in blocks and
    counts the lines; the second reads ``_CHUNK_LINES`` lines at a time and
    parses each chunk into its place in one float64 array of that many
    entries, dropping the chunk's lines before it reads the next.  So the
    array is the only thing held of the whole file; where blank lines leave
    its end unfilled, the numbers are a view of its start.  If a line does
    not parse, or the first pass finds a line break other than \\n, the
    text is read again and cut by ``str.splitlines``; that either parses or
    raises ``NotANumberError`` naming the first such line as ``PATH:LINE``.
    ``OSError`` and ``UnicodeDecodeError`` pass through.
    """
    with open(path, encoding="utf-8") as fh:
        try:
            size, block = 0, "\n"
            for block in iter(lambda: fh.read(2 ** 16), ""):
                if any(c in block for c in _LINE_BREAKS):
                    raise ValueError("cut the lines as splitlines does")
                # the \n bytes of its UTF-8 text: numpy counts them about
                # four times as fast as str.count
                size += int(np.count_nonzero(
                    np.frombuffer(block.encode(), np.uint8) == 10))
            # the last line need not end in a line break
            size += not block.endswith("\n")
            fh.seek(0)
            values, blanks, filled = np.empty(size), [], 0
            while lines := list(itertools.islice(fh, _CHUNK_LINES)):
                try:
                    # parses as float() does, whitespace around a number too
                    chunk = np.array(lines, dtype=np.float64)
                except ValueError:
                    # each line read so far was a number or blank
                    first = filled + len(blanks) + 1
                    blanks += [i for i, t in enumerate(lines, first)
                               if t.isspace()]
                    chunk = np.array([t for t in lines if not t.isspace()],
                                     dtype=np.float64)
                values[filled:filled + chunk.size] = chunk
                filled += chunk.size
                del lines, chunk
        except ValueError:
            fh.seek(0)
            numbers, blanks = [], []
            for lineno, line in enumerate(fh.read().splitlines(), 1):
                text = line.strip()
                if not text:
                    blanks.append(lineno)
                    continue
                try:
                    numbers.append(float(text))
                except ValueError:
                    raise NotANumberError(
                        f"{path}:{lineno}: not a number: {text!r}") from None
            return np.array(numbers, dtype=np.float64), blanks
    return values if filled == size else values[:filled], blanks
