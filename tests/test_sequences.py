import math
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from nterm import (
    CoefficientSequence,
    ConstantWeights,
    PowLogWeights,
    build_table,
    sigma_n_exact,
    weighted_lp_norm,
)
from nterm.sequences import scaled_tail_sqs, sigma_sq_exact
from nterm.weights import read_number_lines

import _ref
from conftest import builtin_families, random_monotone_weights


def _exact_product(a: float, b: float) -> bool:
    return Fraction(a * b) == Fraction(a) * Fraction(b)


def _zero_or_normal(v: float) -> bool:
    return v == 0 or abs(v) >= sys.float_info.min


finite_entries = st.lists(
    st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False, width=64),
    min_size=0, max_size=32)


def decreasing(entries) -> np.ndarray:
    """The magnitudes of entries, sorted nonincreasing."""
    return np.sort(np.abs(np.asarray(entries, dtype=np.float64)))[::-1]


class TestRearrangement:
    @given(finite_entries)
    @settings(max_examples=100)
    def test_unweighted_norms_preserved(self, entries):
        w = ConstantWeights()
        for p in (0.5, 1.0, 2.0, math.inf):
            a = weighted_lp_norm(entries, w, p)
            b = weighted_lp_norm(decreasing(entries), w, p)
            assert b == pytest.approx(a, rel=1e-12)


class TestWeightedNorm:
    def test_weighted_l1(self):
        assert weighted_lp_norm([1, 0.5], PowLogWeights(1, 0), 1) == 2.0

    def test_weighted_sup(self):
        assert weighted_lp_norm([1, 0.5], PowLogWeights(1, 0), math.inf) == 1.0

    def test_pythagoras(self):
        assert weighted_lp_norm([3, 4], ConstantWeights(), 2) == 5.0

    def test_empty_sequence(self):
        assert weighted_lp_norm([], ConstantWeights(), 2) == 0.0

    @pytest.mark.parametrize("p", [0.0, -1.0])
    def test_nonpositive_p_rejected(self, p):
        with pytest.raises(ValueError):
            weighted_lp_norm([1.0], ConstantWeights(), p)


class TestCoefficientSequence:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_entry_rejected(self, bad):
        with pytest.raises(ValueError, match="entry 2"):
            CoefficientSequence(np.array([1.0, bad, 3.0]))

    def test_entries_read_only(self):
        seq = CoefficientSequence(np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            seq.entries[0] = 3.0

    def test_support_len(self):
        assert CoefficientSequence([1, 2, 3]).support_len == 3
        assert len(CoefficientSequence([])) == 0


class TestSigmaExact:
    def test_drop_largest(self):
        assert sigma_n_exact([0.6, 0.8, 0], 1) == pytest.approx(0.6)

    def test_tail_sum(self):
        assert sigma_n_exact([1, 0.5, 0.25], 1) == pytest.approx(
            math.sqrt(5) / 4)

    def test_full_support_kept(self):
        assert sigma_n_exact([3, 1], 2) == 0.0

    def test_sigma_zero_is_l2_norm(self):
        assert sigma_n_exact([3, 4], 0) == 5.0

    def test_negative_n_rejected(self):
        with pytest.raises(ValueError):
            sigma_n_exact([1.0], -1)

    @given(finite_entries, st.integers(0, 40), st.randoms(use_true_random=False))
    @settings(max_examples=150)
    def test_permutation_invariance_exact(self, entries, n, pyrandom):
        perm = list(range(len(entries)))
        pyrandom.shuffle(perm)
        shuffled = [entries[i] for i in perm]
        assert sigma_n_exact(shuffled, n) == sigma_n_exact(entries, n)
        assert sigma_sq_exact(shuffled, n) == sigma_sq_exact(entries, n)

    @given(finite_entries, st.integers(0, 40))
    @settings(max_examples=100)
    def test_rearrangement_leaves_sigma_unchanged(self, entries, n):
        a = decreasing(entries)
        assert sigma_sq_exact(a, n) == sigma_sq_exact(entries, n)
        assert sigma_sq_exact(a[::-1], n) == sigma_sq_exact(entries, n)

    @given(finite_entries, st.integers(0, 8))
    @settings(max_examples=100)
    def test_monotone_in_n(self, entries, n):
        assert sigma_n_exact(entries, n + 1) <= sigma_n_exact(entries, n)

    @given(finite_entries, st.integers(0, 8), st.integers(-6, 6))
    @example([1, 1, 1, 1, 7.27e-158], 4, 1)  # tail square is subnormal
    @settings(max_examples=100)
    def test_dyadic_scaling_exact(self, entries, n, k):
        lam = 2.0 ** k
        sigma = sigma_n_exact(entries, n)
        # the identity can hold in floating point only where nothing rounds
        # into or out of the subnormal range: every lam * v is exact, and
        # sigma and lam * sigma are normal (or zero)
        assume(all(_exact_product(lam, v) for v in entries))
        assume(_zero_or_normal(sigma) and _zero_or_normal(lam * sigma))
        scaled = [lam * v for v in entries]
        assert sigma_n_exact(scaled, n) == lam * sigma

    @given(finite_entries, st.integers(0, 8),
           st.floats(-100, 100, allow_nan=False))
    @settings(max_examples=100)
    def test_general_scaling(self, entries, n, lam):
        # keep |lam * x|**2 clear of underflow, where the identity cannot
        # survive float arithmetic
        assume(lam == 0 or abs(lam) > 1e-30)
        assume(all(v == 0 or abs(v) > 1e-100 for v in entries))
        scaled = [lam * v for v in entries]
        assert sigma_n_exact(scaled, n) == pytest.approx(
            abs(lam) * sigma_n_exact(entries, n), rel=1e-12, abs=1e-300)


# any finite magnitude, subnormals and zeros included
wide_entries = st.lists(
    st.builds(math.ldexp, st.floats(-1, 1, allow_nan=False),
              st.integers(-1100, 1023)),
    min_size=0, max_size=32)

n_grids = st.lists(st.integers(0, 40), min_size=1, max_size=8)


def _per_n(entries, grid):
    return [_ref.scaled_tail_sq(entries, n) for n in grid]


class TestTailGrid:
    """``scaled_tail_sqs`` equals the per-n sort and fsum, bit for bit."""

    @given(st.one_of(wide_entries, finite_entries), n_grids)
    @example([0.0, -0.0, 0.0], [0, 1, 3, 5])
    @example([5e-324, -1e-310, 2.2250738585072014e-308, 0.0], [0, 1, 2, 4])
    @example([1, 1, 1, 1, 7.27e-158], [4, 3, 4])  # tail square is subnormal
    @example([1e300, -1e-300, 1.0, 3e-160, 2.0 ** -600], [0, 1, 2, 3, 4])
    @example([3.0, 4.0], [7, 2, 0, 2])
    @settings(max_examples=400)
    def test_matches_per_n_sums(self, entries, grid):
        assert scaled_tail_sqs(entries, grid) == _per_n(entries, grid)

    @pytest.mark.parametrize("tiny, expected", [
        (2.0 ** -520, 0.25 + 2.0 ** -54),  # its square 2**-1040 counts
        (2.0 ** -540, 0.25),  # its square underflows to 0
    ])
    def test_subnormal_square_decides_a_tie(self, tiny, expected):
        # 0.25 + 2 * 2**-56 lies halfway between two doubles, so only the
        # tiny entry's rounded square decides which one the sum rounds to
        entries = [0.5, 2.0 ** -28, 2.0 ** -28, tiny]
        assert scaled_tail_sqs(entries, [0]) == [(expected, 0)]
        assert _ref.scaled_tail_sq(entries, 0) == (expected, 0)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_long_sequences(self, seed):
        rng = np.random.default_rng(seed)
        size = 20000
        # long runs of one exponent, a log-uniform spread over every binade,
        # ties, and zeros
        entries = np.concatenate([
            rng.uniform(0.5, 1.0, size),
            np.ldexp(rng.uniform(0.5, 1.0, size),
                     rng.integers(-1074, 1024, size)),
            np.repeat(rng.standard_normal(50), 40),
            np.zeros(100),
        ])
        entries *= rng.choice([-1.0, 1.0], entries.size)
        grid = [0, 1, 5, 100, 4000, 20000, 30000, 40000, 42000, 42099,
                42100, 42101, 5, 0]
        assert scaled_tail_sqs(entries, grid) == _per_n(entries, grid)

    def test_empty_grid(self):
        assert scaled_tail_sqs([1.0, 2.0], []) == []

    def test_peak_memory_of_read_and_sums(self, tmp_path):
        # the arrays each step holds, in bytes per entry: the reader, the
        # chunks' float64 arrays and their concatenation (16) plus one chunk
        # of 2**14 lines, each a str of at most 100 bytes; the sums, besides
        # x, the sort and then Q and one limb (16) plus the run starts and
        # the cut indices, a few hundred entries here
        size = 2 ** 17
        numbers = np.random.default_rng(5).standard_normal(size)
        path = tmp_path / "x.txt"
        path.write_text("\n".join(map(repr, numbers.tolist())) + "\n")
        grid = [2 ** i for i in range(4, 18)]
        tracemalloc.start()
        try:
            values, blanks = read_number_lines(str(path))
            read_peak = tracemalloc.get_traced_memory()[1]
            x = CoefficientSequence(values)
            del values
            tracemalloc.reset_peak()
            held = tracemalloc.get_traced_memory()[0]
            sums = scaled_tail_sqs(x, grid)
            sums_peak = tracemalloc.get_traced_memory()[1] - held
        finally:
            tracemalloc.stop()
        assert read_peak <= 16 * size + 100 * 2 ** 14
        assert sums_peak <= 17 * size
        assert sums == _per_n(numbers, grid)

    def test_negative_n_rejected(self):
        with pytest.raises(ValueError, match="n must be >= 0"):
            scaled_tail_sqs([1.0, 2.0], [1, -1])


class TestRearrangementNeverIncreasesWeightedNorm:
    """Sorting magnitudes down against nondecreasing weights is optimal."""

    @given(finite_entries, st.integers(0, 2**32 - 1))
    @settings(max_examples=150)
    def test_weighted_norm_inequality(self, entries, seed):
        rng = np.random.default_rng(seed)
        w = random_monotone_weights(rng, max(len(entries), 1))
        for p in (0.5, 1.0, 2.0, math.inf):
            before = weighted_lp_norm(entries, w, p)
            after = weighted_lp_norm(decreasing(entries), w, p)
            assert after <= before + 1e-12 * max(before, 1.0)


def flat_block(table, m: int) -> CoefficientSequence:
    """m equal entries W_m**-1, read from the table as the structure
    oracle reads its flat-block witness."""
    return CoefficientSequence(
        np.full(m, math.sqrt(table.inv_sq_slice(m, m)[0])))


class TestFlatBlock:
    """m copies of W_m**-1: a unit-sphere element of the weighted lp ball
    with sigma_n**2 = (m - n) / W_m**2, the p <= 2 worst case."""

    def test_const_p2(self):
        seq = flat_block(build_table(ConstantWeights(), 2, 4), 4)
        assert seq.entries.tolist() == [0.5, 0.5, 0.5, 0.5]

    def test_const_p1(self):
        seq = flat_block(build_table(ConstantWeights(), 1, 3), 3)
        assert np.allclose(seq.entries, 1 / 3)

    def test_linear_weights_p1(self):
        # W_2 = 1 + 2 = 3 for w_j = j
        seq = flat_block(build_table(PowLogWeights(1, 0), 1, 2), 2)
        assert np.allclose(seq.entries, 1 / 3)

    def test_m_zero_rejected(self):
        table = build_table(ConstantWeights(), 1, 8)
        with pytest.raises(ValueError, match=r"covers m in \[1, 8\], got 0"):
            flat_block(table, 0)

    def test_m_past_the_table_rejected(self):
        table = build_table(ConstantWeights(), 1, 8)
        with pytest.raises(ValueError, match=r"covers m in \[1, 8\], got 9"):
            flat_block(table, 9)

    def test_entries_that_underflow_are_zero(self):
        # W_40 = 40**(1/0.003) is past the float64 range, so W_40**-2 is
        # 0.0; the suite turns an overflow warning into an error
        table = build_table(ConstantWeights(), 0.003, 40)
        assert not table.log_domain
        assert table.log_W_slice(40, 40)[0] > math.log(sys.float_info.max)
        assert flat_block(table, 40).entries.tolist() == [0.0] * 40
        # the entries are read through W_m**-2: W_8 = 2**1000 is finite but
        # its square is not, while W_2 = 2**333.3... squares to a normal
        assert flat_block(table, 8).entries.tolist() == [0.0] * 8
        assert flat_block(table, 2).entries[0] == pytest.approx(
            2.0 ** (-1 / 0.003), rel=1e-9)

    @pytest.mark.parametrize("name", list(builtin_families()))
    @pytest.mark.parametrize("p", [0.5, 1.0, 2.0])
    def test_unit_norm(self, name, p):
        w = builtin_families()[name]
        table = build_table(w, p, 64)
        for m in (1, 7, 64):
            seq = flat_block(table, m)
            assert weighted_lp_norm(seq, w, p) == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("name", list(builtin_families()))
    def test_tail_identity(self, name):
        # sigma_n(s_m)**2 == (m - n) / W_m**2 for every n < m
        w = builtin_families()[name]
        table = build_table(w, 1.0, 300)
        for m in (2, 9, 64, 300):
            seq = flat_block(table, m)
            inv_sq = table.inv_sq_slice(m, m)[0]
            for n in range(m):
                assert sigma_sq_exact(seq, n) == pytest.approx(
                    (m - n) * inv_sq, rel=1e-10)


class TestFlattenHead:
    """Lowering the n largest entries to the n-th largest keeps sigma_n and
    never raises the weighted norm (the weights are nondecreasing)."""

    @given(st.lists(st.floats(0, 100, allow_nan=False), min_size=1,
                    max_size=24),
           st.integers(1, 24), st.integers(0, 2**32 - 1))
    @settings(max_examples=150)
    def test_norm_shrinks_and_sigma_survives(self, entries, n, seed):
        v = decreasing(entries)
        out = v.copy()
        out[:n] = v[n - 1] if n <= v.size else 0.0
        rng = np.random.default_rng(seed)
        w = random_monotone_weights(rng, v.size)
        for p in (0.5, 1.0, 2.0, math.inf):
            before = weighted_lp_norm(v, w, p)
            assert weighted_lp_norm(out, w, p) <= before + 1e-12 * max(before, 1.0)
        if n <= v.size:
            assert sigma_n_exact(out, n) == sigma_n_exact(v, n)
