import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nterm import (
    ConstantWeights,
    LogPowerWeights,
    PowLogWeights,
    TabulatedWeights,
    UnsupportedFamilyError,
    WeightSpecError,
    WeightValidationError,
    parse_weight_spec,
    predicted_rate,
)
import nterm.weights
from nterm.weights import NotANumberError, read_number_lines

import _ref
from conftest import builtin_families, random_monotone_weights


class TestWeightValue:
    def test_constant(self):
        assert ConstantWeights().values(10)[-1] == 1.0

    def test_logpow_first_weight(self):
        assert LogPowerWeights(1.0).values(1)[-1] == 1.0

    def test_logpow_formula(self):
        w = LogPowerWeights(2.0)
        assert w.values(7)[-1] == pytest.approx((1 + math.log(7)) ** 2)

    def test_powlog_running_max_of_identity(self):
        w = PowLogWeights(1.0, 0.0)
        assert w.values(5)[-1] == 5.0

    def test_index_zero_rejected(self):
        with pytest.raises(ValueError):
            ConstantWeights().values(0)

    def test_values_prefix_matches_scalar(self):
        w = PowLogWeights(0.5, -1.0)
        vals = w.values(50)
        assert vals[9] == w.values(10)[-1]


class TestValidation:
    def test_tabulated_accepted(self):
        assert TabulatedWeights([1, 2, 2, 5]).known_length == 4

    def test_tabulated_decrease_names_index(self):
        with pytest.raises(WeightValidationError) as exc:
            TabulatedWeights([1, 3, 2])
        assert exc.value.index == 3

    def test_tabulated_first_below_one(self):
        with pytest.raises(WeightValidationError) as exc:
            TabulatedWeights([0.5, 1, 2])
        assert exc.value.index == 1

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_tabulated_non_finite_names_index(self, bad):
        with pytest.raises(WeightValidationError) as exc:
            TabulatedWeights([1, 2, bad, 4])
        assert exc.value.index == 3

    @pytest.mark.parametrize("make", [
        lambda: PowLogWeights(math.nan, 0.0),
        lambda: PowLogWeights(1.0, -math.inf),
        lambda: PowLogWeights(1e308, 0.0),    # w_2 overflows to inf
        lambda: LogPowerWeights(math.inf),
        lambda: LogPowerWeights(math.nan),
    ])
    def test_closed_form_non_finite_rejected(self, make):
        with pytest.raises(WeightValidationError):
            make()

    def test_logpow_negative_beta_rejected(self):
        with pytest.raises(WeightValidationError):
            LogPowerWeights(-0.5)

    def test_all_builtins_validate(self):
        # every value, not only the construction-time sample grid
        for w in builtin_families().values():
            TabulatedWeights(w.values(4096))

    @given(st.lists(st.floats(0.0, 10.0), min_size=1, max_size=50))
    @settings(max_examples=100)
    def test_cumulative_tables_always_valid(self, steps):
        vals = 1.0 + np.cumsum(np.asarray(steps))
        assert TabulatedWeights(vals).known_length == vals.size


class TestMonotonicity:
    @pytest.mark.parametrize("name", list(builtin_families()))
    def test_nondecreasing_up_to_1e6(self, name):
        w = builtin_families()[name]
        vals = w.values(10 ** 6)
        assert vals[0] >= 1.0
        assert np.all(np.diff(vals) >= 0)

    @pytest.mark.parametrize("alpha", [0.5, 1.0])
    @pytest.mark.parametrize("beta", [0.0, 1.0])
    def test_powlog_nonneg_beta_matches_raw_formula(self, alpha, beta):
        # the raw formula is already increasing, so the running max is
        # attained at i = j for every index
        w = PowLogWeights(alpha, beta)
        j = np.arange(1, 10 ** 4 + 1, dtype=np.float64)
        assert np.array_equal(w.values(10 ** 4), w.raw_value(j))

    @pytest.mark.parametrize("alpha, beta, exponents", [
        (0.0, 1.0, (0.0, 1.0)),
        (0.0, 0.0, (0.0, 0.0)),
        (0.0, -1.0, (0.0, 0.0)),
        (-0.5, 2.0, (0.0, 0.0)),
    ])
    def test_powlog_exponents_at_alpha_not_positive(self, alpha, beta,
                                                     exponents):
        # w_m grows like log(m)**beta at alpha = 0 and beta > 0; otherwise
        # the formula tends to 0 or stays flat, and so does the running max
        w = PowLogWeights(alpha, beta)
        assert w.asymptotic_exponents == exponents
        vals = w.values(2 ** 16 - 1)
        if exponents[1] > 0:
            assert vals[-1] == 16.0 ** beta
        else:
            assert vals[-1] == vals[2 ** 10]

    def test_powlog_negative_beta_dips_below_model(self):
        w = PowLogWeights(0.1, -2.0)
        vals = w.values(10 ** 4)
        assert np.all(np.diff(vals) >= 0)
        raw = w.raw_value(np.arange(1, 10 ** 4 + 1, dtype=np.float64))
        assert raw[1] < vals[1]  # formula dips at small j, model holds flat
        assert vals[0] == 1.0


class TestValuesInPlace:
    """The closed forms are evaluated in their own arange, plus one scratch
    array for the PowLog log factor, by the operations of the whole-array
    expressions in the same order."""

    J = np.arange(1, 2 ** 16 + 1, dtype=np.float64)

    @pytest.mark.parametrize("beta", [0.0, 0.5, 1.0, 2.0, 3.7])
    def test_logpow_bits(self, beta):
        assert np.array_equal(LogPowerWeights(beta).values(self.J.size),
                              (1.0 + np.log(self.J)) ** beta)

    @pytest.mark.parametrize("alpha, beta", [
        (1.0, 0.0), (0.5, -1.0), (0.1, -2.0), (2.0, 0.5), (0.0, 1.0),
        (1.5, -1.0), (12.0, 3.0), (0.75, 2.0)])
    def test_powlog_bits(self, alpha, beta):
        w = PowLogWeights(alpha, beta)
        raw = self.J ** alpha * np.log2(self.J + 1.0) ** beta
        assert np.array_equal(w.raw_value(self.J.copy()), raw)
        assert np.array_equal(w.values(self.J.size),
                              np.maximum.accumulate(raw))

    def test_powlog_overflow_bits(self):
        # j**60 overflows at j = 137271; past it log2(j+1)**-300 is 0, so
        # the direct product is NaN there and the formula is summed in
        # logarithms; every other entry keeps the direct product's bits
        w = PowLogWeights(60.0, -300.0)
        j = np.arange(1, 2 ** 18 + 1, dtype=np.float64)
        with np.errstate(over="ignore", invalid="ignore"):
            raw = j ** 60.0 * np.log2(j + 1.0) ** -300.0
            got = w.raw_value(j.copy())
        nan = np.isnan(raw)
        assert np.flatnonzero(nan)[0] == 137271 - 1
        assert np.array_equal(got[~nan], raw[~nan])
        assert np.array_equal(got[nan], np.exp(
            60.0 * np.log(j[nan]) - 300.0 * np.log(np.log2(j[nan] + 1.0))))
        # the formula stays below w_1 = 1 up to 2**18
        assert np.all(w.values(j.size) == 1.0)

    @pytest.mark.parametrize("w, limit_mib", [
        (LogPowerWeights(1.0), 9), (PowLogWeights(1.0, 0.0), 17),
        (PowLogWeights(0.5, -1.0), 17)])
    def test_peak_memory_at_2_20(self, w, limit_mib):
        # the returned array alone is 8 MiB
        tracemalloc.start()
        try:
            w.values(2 ** 20)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= limit_mib * 2 ** 20


class TestValuesChecksWhatItReturns:
    @pytest.mark.parametrize("spec", [
        "logpow:beta=1", "powlog:alpha=1,beta=0", "powlog:alpha=0.5,beta=-1"])
    def test_parse_evaluates_at_most_1024_weights(self, weights_evaluated,
                                                   spec):
        parse_weight_spec(spec)
        assert 0 < sum(weights_evaluated) <= 1024

    def test_names_first_overflow(self):
        # j**60 first passes the float64 maximum at j = 137271
        w = parse_weight_spec("powlog:alpha=60,beta=0")
        assert np.isfinite(w.values(137270)).all()
        with pytest.raises(ValueError,
                           match=r"^weight w_137271 is not finite$"):
            w.values(2 ** 18)

    def test_late_overflow_is_not_a_spec_error(self):
        w = LogPowerWeights(300.0)   # (1 + ln j)**300 overflows past 1024
        with pytest.raises(ValueError) as exc:
            w.values(2 ** 20)
        assert not isinstance(exc.value, WeightValidationError)

    def test_nan_from_inf_times_zero_is_summed_in_logs(self):
        # j**51 overflows where log2(j + 1)**-300 has underflowed to 0, yet
        # the formula stays below 1 up to j = 2**28
        w = PowLogWeights(51.0, -300.0)
        assert np.all(w.values(2 ** 21) == 1.0)

    def test_steep_power_of_a_vanishing_log(self):
        # the formula is e**-110 at j = 35, where j**200 overflows and
        # log2(j + 1)**-500 underflows, and first passes 1 at j = 133
        w = parse_weight_spec("powlog:alpha=200,beta=-500")
        vals = w.values(1024)
        assert np.isfinite(vals).all()
        assert vals[131] == 1.0 < vals[132]
        # each logarithm is rounded to about eps and then scaled by its
        # exponent, in the direct product (log2(j + 1)**-500) and in the
        # sum of logarithms alike: 1.3e-12 relative at j <= 1024
        eps = np.finfo(np.float64).eps
        bound = 2 * eps * (200 * math.log(1024)
                           + 500 * (1 + math.log(math.log2(1025))))
        rel = _ref.rel_errors(vals, _ref.weights(w, 1024))
        assert rel.max() <= bound


class TestPredictedRate:
    def test_constant_p1(self):
        r = predicted_rate(ConstantWeights(), 1.0)
        assert r.poly_exponent == pytest.approx(0.5)
        assert r.log_exponent == 0.0
        assert r.valid

    def test_powlog_p2(self):
        r = predicted_rate(PowLogWeights(1.0, 0.0), 2.0)
        assert r.poly_exponent == pytest.approx(1.0)
        assert r.valid

    def test_logpow_p3_invalid(self):
        r = predicted_rate(LogPowerWeights(1.0), 3.0)
        assert not r.valid
        assert r.poly_exponent == pytest.approx(1 / 3 - 0.5)

    def test_constant_p2_invalid(self):
        assert not predicted_rate(ConstantWeights(), 2.0).valid

    def test_powlog_p_inf(self):
        r = predicted_rate(PowLogWeights(1.0, 0.0), math.inf)
        assert r.poly_exponent == pytest.approx(0.5)
        assert r.valid
        r = predicted_rate(PowLogWeights(0.25, 0.0), math.inf)
        assert not r.valid

    def test_tabulated_unsupported(self):
        with pytest.raises(UnsupportedFamilyError):
            predicted_rate(TabulatedWeights([1, 2, 3]), 1.0)

    def test_bad_p(self):
        with pytest.raises(ValueError):
            predicted_rate(ConstantWeights(), 0.0)


class TestSpecLanguage:
    @pytest.mark.parametrize("spec,expected_type", [
        ("const", ConstantWeights),
        ("logpow:beta=1.5", LogPowerWeights),
        ("powlog:alpha=1,beta=0", PowLogWeights),
    ])
    def test_parse(self, spec, expected_type):
        assert isinstance(parse_weight_spec(spec), expected_type)

    def test_parse_roundtrip(self):
        w = parse_weight_spec("powlog:alpha=0.5,beta=-1")
        w2 = parse_weight_spec(w.spec_string())
        assert w2.alpha == w.alpha and w2.beta == w.beta

    def test_file_spec(self, tmp_path):
        path = tmp_path / "w.txt"
        path.write_text("1\n2\n4\n")
        w = parse_weight_spec(f"file:{path}")
        assert isinstance(w, TabulatedWeights)
        assert list(w.values(3)) == [1.0, 2.0, 4.0]
        assert w.known_length == 3

    def test_file_spec_bad_line(self, tmp_path):
        path = tmp_path / "w.txt"
        path.write_text("1\nhello\n")
        with pytest.raises(WeightSpecError):
            parse_weight_spec(f"file:{path}")

    @pytest.mark.parametrize("spec", [
        "bogus", "logpow", "logpow:gamma=1", "powlog:alpha=1",
    ])
    def test_parse_errors(self, spec):
        with pytest.raises(WeightSpecError):
            parse_weight_spec(spec)


class TestWeightFile:
    """A weight file is cut into lines as ``str.splitlines`` cuts its text,
    whether it is read a line at a time or again as a whole."""

    @pytest.mark.parametrize("data, expected", [
        (b"1\n2\n4\n", [1.0, 2.0, 4.0]),
        (b"1\n2\n4", [1.0, 2.0, 4.0]),
        (b" 1 \r\n2\t\r4\n", [1.0, 2.0, 4.0]),
        # blank lines may end the table
        (b"1\n2\n\n  \n", [1.0, 2.0]),
        # a form feed ends a line, and the blank line after it ends the table
        (b"1\n2\x0c\n", [1.0, 2.0]),
        (b"1\n2\x0c4\n", [1.0, 2.0, 4.0]),
        # lines of only whitespace, the last one with no line break
        (b"1\n2\n \t\n\x0b\n   ", [1.0, 2.0]),
        ("1\u20282\x854\u2029\n".encode(), [1.0, 2.0, 4.0]),
    ])
    def test_values(self, tmp_path, data, expected):
        path = tmp_path / "w.txt"
        path.write_bytes(data)
        assert parse_weight_spec(f"file:{path}").values(len(expected)) \
            .tolist() == expected

    @pytest.mark.parametrize("data, message", [
        (b"1\n\n2\n", "{path}:2: blank line inside weight table"),
        # float() would strip the form feed; str.splitlines makes it a line
        (b"1\n\x0c2\n", "{path}:2: blank line inside weight table"),
        ("1\n2\u2028\n4\n".encode(),
         "{path}:3: blank line inside weight table"),
        (b"1\n2\nhello\n", "{path}:3: not a number: 'hello'"),
        (b"1\n" * 5000 + b"x\n", "{path}:5001: not a number: 'x'"),
        # a bad line is named before a blank line above it
        (b"1\n\n \nx\n", "{path}:4: not a number: 'x'"),
        ("1\n\u2028x\n".encode(), "{path}:3: not a number: 'x'"),
    ])
    def test_errors_are_named(self, tmp_path, data, message):
        path = tmp_path / "w.txt"
        path.write_bytes(data)
        with pytest.raises(WeightSpecError) as exc:
            parse_weight_spec(f"file:{path}")
        assert str(exc.value) == message.format(path=path)

    def test_invalid_table_is_a_validation_error(self, tmp_path):
        path = tmp_path / "w.txt"
        path.write_text("2\n1\n")
        with pytest.raises(WeightValidationError, match="decrease at index 2"):
            parse_weight_spec(f"file:{path}")

    def test_undecodable_file(self, tmp_path):
        # the reader passes the decode error through; the spec names the path
        path = tmp_path / "w.txt"
        path.write_bytes(b"1\n" * 5000 + b"\xff\n")
        with pytest.raises(UnicodeDecodeError, match="position 10000"):
            read_number_lines(str(path))
        named = rf"^{re.escape(str(path))}: .*position 10000"
        with pytest.raises(WeightSpecError, match=named):
            parse_weight_spec(f"file:{path}")


def test_table_is_copied_on_construction():
    c = np.ones(4)
    t = TabulatedWeights(c[:3])
    c[1] = 5.0
    assert t.values(3).tolist() == [1.0, 1.0, 1.0]


class TestWeightFileHeldOnce:
    """A weight file's numbers are held once: the table keeps the reader's
    array, read-only, and hands out copies."""

    def test_peak_memory_of_parse(self, tmp_path, rng):
        # the table's array (8 bytes per entry) and one chunk of 2**14
        # lines, each a str of at most 100 bytes: no array of every chunk
        # besides it, and no copy for the table
        size = 2 ** 17
        weights = random_monotone_weights(rng, size).values(size)
        path = tmp_path / "w.txt"
        path.write_text("\n".join(map(repr, weights.tolist())) + "\n")
        tracemalloc.start()
        try:
            w = parse_weight_spec(f"file:{path}")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * size + 100 * 2 ** 14
        assert w.values(size).tobytes() == weights.tobytes()

    def test_table_keeps_the_readers_array(self, tmp_path, monkeypatch):
        read = []

        def reading(path):
            read.append(real(path))
            return read[-1]

        real = nterm.weights.read_number_lines
        monkeypatch.setattr(nterm.weights, "read_number_lines", reading)
        path = tmp_path / "w.txt"
        path.write_text("1\n2\n4\n\n")
        w = parse_weight_spec(f"file:{path}")
        (values, _), = read
        assert np.shares_memory(w._values, values)
        assert not w._values.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            w._values[0] = 5.0
        vals = w.values(3)
        vals[:] = 7.0
        assert w.values(3).tolist() == [1.0, 2.0, 4.0]


CHUNK = 2 ** 14
# float() and numpy's float64 parse agree on each of these
ODD_NUMBERS = ["1_0", "\u0661\u0662", "nan", "-0", " \t1.5  ", "1e400",
               "4.9e-324", "\uff11\uff12", "-inf", ".5"]


def _as_float_and_splitlines(text: str) -> tuple[list[float], list[int]]:
    lines = text.splitlines()
    return ([float(t) for t in lines if t.strip()],
            [i for i, t in enumerate(lines, 1) if not t.strip()])


class TestReadNumberLines:
    """The reader's numbers are float() of the lines ``str.splitlines``
    cuts, bit for bit, on either side of a chunk's edge."""

    @staticmethod
    def _text(line: int, odd: str, newline: str, end: str) -> str:
        rng = np.random.default_rng(line)
        lines = [repr(v) for v in rng.standard_normal(CHUNK + 3).tolist()]
        lines[:len(ODD_NUMBERS)] = ODD_NUMBERS
        lines[line - 1] = odd
        return newline.join(lines) + end

    @pytest.mark.parametrize("line", [CHUNK - 1, CHUNK, CHUNK + 1])
    # blank, whitespace only, a form feed that ends a number's line, and
    # one alone
    @pytest.mark.parametrize("odd", ["", " \t", "7\x0c", "\x0c"])
    @pytest.mark.parametrize("newline, end", [
        ("\n", "\n"), ("\r\n", "\r\n"), ("\n", "")])
    def test_bits(self, tmp_path, line, odd, newline, end):
        text = self._text(line, odd, newline, end)
        path = tmp_path / "x.txt"
        path.write_bytes(text.encode())
        values, blanks = read_number_lines(str(path))
        expected, expected_blanks = _as_float_and_splitlines(text)
        assert values.dtype == np.float64
        assert values.tobytes() == np.array(expected).tobytes()
        assert blanks == expected_blanks

    @pytest.mark.parametrize("line", [CHUNK - 1, CHUNK, CHUNK + 1])
    @pytest.mark.parametrize("newline", ["\n", "\r\n"])
    def test_bad_line_is_named(self, tmp_path, line, newline):
        # a blank line in the first chunk, the bad one at ``line``
        text = self._text(line, "x", newline, "")
        text = text.replace(newline, newline * 2, 1)
        path = tmp_path / "x.txt"
        path.write_bytes(text.encode())
        with pytest.raises(NotANumberError) as exc:
            read_number_lines(str(path))
        assert str(exc.value) == f"{path}:{line + 1}: not a number: 'x'"

    def test_line_break_in_the_last_block(self, tmp_path):
        # past one chunk of lines and one 2**16-character block of text, a
        # form feed only in the last block still sends the file to
        # str.splitlines, which cuts a line there
        text = self._text(CHUNK + 1, "7\x0c", "\n", "\n")
        assert text.index("\x0c") >= (len(text) - 1) // 2 ** 16 * 2 ** 16
        assert 2 ** 16 < len(text) and text.count("\n") > CHUNK
        path = tmp_path / "x.txt"
        path.write_bytes(text.encode())
        values, blanks = read_number_lines(str(path))
        expected, expected_blanks = _as_float_and_splitlines(text)
        assert values.tobytes() == np.array(expected).tobytes()
        assert blanks == expected_blanks == [CHUNK + 2]

    def test_empty_file(self, tmp_path):
        path = tmp_path / "x.txt"
        path.write_bytes(b"")
        values, blanks = read_number_lines(str(path))
        assert values.dtype == np.float64 and values.size == 0
        assert blanks == []
