import functools
import itertools
import math
import tracemalloc
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from scipy.special import logsumexp, polygamma

from nterm import (
    ConstantWeights,
    LogPowerWeights,
    PowLogWeights,
    TabulatedWeights,
    build_table,
    class_bounds,
    class_error_infty,
    dyadic_grid,
    sigma_n_exact,
    weighted_lp_norm,
)
from nterm.bounds import (
    _MAX_TERMS,
    _STRIDE,
    STATUS_ATTAINED,
    STATUS_CONVERGED,
    STATUS_DIVERGENT,
    STATUS_LIMIT,
    STATUS_TRUNCATED,
    _TAIL_TOL,
    CumulativeWeightTable,
    _log_tail_bound,
    _proof_margin,
    _regime,
    _tail_integral,
    _tail_integrand_derivatives,
    default_m_max,
    run_table,
    scan_length,
)

import _ref
from conftest import builtin_families, random_monotone_weights

LINEAR = PowLogWeights(1.0, 0.0)  # w_j = j

# one reference per (alpha, beta, X), shared by the epsabs cases
_tail_integral_ref = functools.lru_cache(_ref.tail_integral)


def brute_envelopes(weight_vals, p, n, m_max):
    """Independent enumeration of both envelopes from raw weight values."""
    best_up, best_low = -math.inf, -math.inf
    arg_up = arg_low = None
    s = 0.0
    for m in range(1, m_max + 1):
        s += weight_vals[m - 1] ** p
        if m < max(n, 1):
            continue
        wm_sq = s ** (2.0 / p)
        t_up = (m - n + 1) / wm_sq
        t_low = (m - n) / wm_sq
        if t_up > best_up:
            best_up, arg_up = t_up, m
        if t_low > best_low:
            best_low, arg_low = t_low, m
    return best_up, arg_up, best_low, arg_low


class TestBuildTable:
    def test_const_p1(self):
        t = build_table(ConstantWeights(), 1.0, 4)
        assert [float(s) for s in t.sums] == [1, 2, 3, 4]
        assert t.inv_sq_slice(1, 4).tolist() == [1, 1 / 4, 1 / 9, 1 / 16]

    def test_const_p_half(self):
        t = build_table(ConstantWeights(), 0.5, 4)
        assert t.inv_sq_slice(1, 4).tolist() == [1, 1 / 16, 1 / 81, 1 / 256]

    def test_linear_p1(self):
        t = build_table(LINEAR, 1.0, 3)
        assert [float(s) for s in t.sums] == [1, 3, 6]
        assert t.inv_sq_slice(3, 3)[0] == 1 / 36

    def test_strictly_increasing_and_floor(self):
        for name, w in builtin_families().items():
            for p in (0.5, 1.0, 2.0):
                t = build_table(w, p, 512)
                assert np.all(np.diff(t.sums) > 0), name
                m = np.arange(1, 513)
                assert np.all(t.log_W_slice(1, 512) >= np.log(m) / p
                              + math.log1p(-1e-12)), name

    def test_tabulated_too_short(self):
        with pytest.raises(ValueError, match="up to index 3, requested 10"):
            build_table(TabulatedWeights([1, 2, 3]), 1.0, 10)

    def test_bad_args(self):
        with pytest.raises(ValueError):
            build_table(ConstantWeights(), math.inf, 4)
        with pytest.raises(ValueError):
            build_table(ConstantWeights(), 1.0, 0)

    def test_log_domain_switch(self):
        w = TabulatedWeights(np.exp(np.linspace(10, 200, 32)))
        t = build_table(w, 8.0, 32)
        assert t.log_domain
        # prefix log-sum-exp against an independent reference
        logs = 8.0 * np.log(w.values(32))
        log_W = t.log_W_slice(1, 32)
        for m in (1, 7, 32):
            ref = float(logsumexp(logs[:m])) / 8.0
            assert log_W[m - 1] == pytest.approx(ref, rel=1e-12)
        assert t.inv_sq_slice(32, 32)[0] == pytest.approx(
            math.exp(-2 * log_W[-1]))

    def test_small_weights_stay_linear(self):
        assert not build_table(LINEAR, 2.0, 1024).log_domain

    def test_non_finite_weight_is_named(self):
        # j**50 overflows to inf at j = 1462495
        with pytest.raises(ValueError, match="w_1462495 is not finite"):
            build_table(PowLogWeights(50.0, 0.0), 1.0, 2 ** 21)


# Error budget of the table against the 50-digit reference (tests/_ref.py),
# to first order in U.  C_F ulps are allowed for each elementary function
# (pow, log, exp, log1p), which covers libm and NumPy's vectorised kernels.
U = 2.0 ** -53
C_F = 4
REF_M = 1500
REF_FAMILIES = {
    "const": ConstantWeights(),
    "logpow:beta=1": LogPowerWeights(1.0),
    "powlog:alpha=1,beta=0": LINEAR,
    "powlog:alpha=0.5,beta=-1": PowLogWeights(0.5, -1.0),
    "powlog:alpha=12,beta=0": PowLogWeights(12.0, 0.0),
}
# prefix sums of w_j**p past exp(700), as in test_log_domain_switch
LOG_DOMAIN_WEIGHTS = TabulatedWeights(np.exp(np.linspace(10, 200, REF_M)))
# every term 33.1**200 = e**699.9 is below the threshold, but the prefix
# sums leave the float64 range at m = 19,521
SUM_OVERFLOW_M = 20000
SUM_OVERFLOW_WEIGHTS = TabulatedWeights(np.full(SUM_OVERFLOW_M, 33.1))


def _ref_arrays(w, p, M=REF_M):
    """Reference W, W**-2 and log W as float64, and the weights' largest
    relative error."""
    ref = _ref.table(w, p, M)
    w_err = float(_ref.rel_errors(w.values(M), ref.pop("w")).max())
    floats = {k: np.array([float(v) for v in vals]) for k, vals in ref.items()}
    return floats, w_err


class TestTableAgainstReference:
    """W_m**-2 and log W_m against 50 digits, m = 1..1500."""

    @pytest.mark.parametrize("p", [0.3, 0.5, 1.0, 2.0, 5.0])
    @pytest.mark.parametrize("name", list(REF_FAMILIES))
    def test_float_path(self, name, p):
        w = REF_FAMILIES[name]
        t = build_table(w, p, REF_M)
        assert not t.log_domain
        ref, w_err = _ref_arrays(w, p)
        # each weight costs a few elementary functions and a product
        beta = getattr(w, "beta", 0.0)
        assert w_err <= (2 + abs(beta)) * C_F * U + U
        m = np.arange(1, REF_M + 1)
        log_S = np.abs(p * ref["log_W"])
        # S_m: the terms w**p carry p*w_err + C_F ulps, and the Sum2 of
        # positive terms u + gamma_m**2 (Ogita, Rump & Oishi 2005)
        gamma = m * U / (1 - m * U)
        rel_S = p * w_err + (C_F + 1) * U + gamma ** 2
        # S**y with y = fl(-2/p) or fl(1/p): the rounding of y costs
        # |y ln S| ulps, on top of |y| rel_S and the pow call itself
        inv_sq_bound = (2 / p) * (rel_S + log_S * U) + C_F * U
        log_W_bound = rel_S / p + (C_F + 1) * U * np.abs(ref["log_W"])

        inv_sq = t.inv_sq_slice(1, REF_M)
        assert np.all(_ref.rel_errors(inv_sq, ref["inv_sq"]) <= inv_sq_bound)
        log_W = t.log_W_slice(1, REF_M)
        assert np.all(_ref.abs_errors(log_W, ref["log_W"]) <= log_W_bound)

    @pytest.mark.parametrize("p", [5.0, 8.0])
    def test_log_domain_path(self, p):
        self._check_log_domain(LOG_DOMAIN_WEIGHTS, p, REF_M)

    def test_sum_past_float64_range(self):
        # a float64 table would give W_m = inf and W_m**-2 = 0 past m = 19,521
        self._check_log_domain(SUM_OVERFLOW_WEIGHTS, 200.0, SUM_OVERFLOW_M)

    @staticmethod
    def _check_log_domain(w, p, M):
        t = build_table(w, p, M)
        assert t.log_domain
        ref, w_err = _ref_arrays(w, p, M)
        assert w_err == 0.0   # tabulated values are the reference
        m = np.arange(1, M + 1)
        L = p * np.abs(ref["log_W"])          # |ln S_m|
        # p * ln w_j costs C_F + 1 ulps of p |ln w_j|; each logaddexp step
        # adds C_F + 2 ulps of the largest magnitude so far
        log_w = np.log(w.values(M))
        scale = np.maximum.accumulate(np.maximum(L, p * np.abs(log_w)))
        abs_L = (p * w_err + (C_F + 1) * U * scale
                 + m * (C_F + 2) * U * scale)
        # exp(fl(-2/p) * L): the rounded factor and product cost 2 ulps of
        # the argument
        inv_sq_bound = (2 / p) * abs_L + 2 * U * (2 / p) * L + C_F * U
        log_W_bound = abs_L / p + U * L / p

        inv_sq = t.inv_sq_slice(1, M)
        assert np.all(_ref.rel_errors(inv_sq, ref["inv_sq"]) <= inv_sq_bound)
        log_W = t.log_W_slice(1, M)
        assert np.all(_ref.abs_errors(log_W, ref["log_W"]) <= log_W_bound)


# lengths at and around 2**16, a multiple of the prefix sum's blocks
BLOCK_LENGTHS = [1, 2 ** 16 - 1, 2 ** 16, 2 ** 16 + 1, 3 * 2 ** 16 + 5]
BLOCK_FAMILIES = {
    "const": ConstantWeights(),
    "logpow:beta=1": LogPowerWeights(1.0),
    "powlog:alpha=1,beta=0": LINEAR,
    "random": random_monotone_weights(np.random.default_rng(11),
                                      max(BLOCK_LENGTHS)),
}


class TestBlockedTable:
    """The blocked prefix sum against one unblocked Sum2, bit for bit."""

    @pytest.mark.parametrize("p", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("M", BLOCK_LENGTHS)
    @pytest.mark.parametrize("name", list(BLOCK_FAMILIES))
    def test_equals_one_shot_cumsum(self, name, M, p):
        w = BLOCK_FAMILIES[name]
        t = build_table(w, p, M)
        assert not t.log_domain
        assert t.sums.dtype == np.float64 and t.sums.size == M
        assert np.array_equal(t.sums, _ref.prefix_sums_p(w, p, M))

    def test_kept_weights(self):
        t = build_table(LINEAR, 1.0, 1000, (7, 999, 2000))
        assert t.weights == {256: 256.0, 512: 512.0, 768: 768.0, 7: 7.0,
                             999: 999.0, 1000: 1000.0}
        assert t.weight(768) == 768.0
        with pytest.raises(ValueError, match="table keeps no weight w_8"):
            t.weight(8)

    def test_sum_past_float64_range_in_a_later_block(self):
        # 1e303 * m passes the float64 maximum at m = 179,770, in a later
        # block: the entries before it stay float, those from it on are
        # logarithms continued from the last float sum
        w = TabulatedWeights(np.full(2 ** 18, 1e303))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            t = build_table(w, 1.0, 2 ** 18)
        assert t.switch == 179769 and t.log_domain
        assert t.sums[t.switch - 1] == 1.79769e308
        assert np.array_equal(t.sums[:t.switch],
                              _ref.prefix_sums_p(w, 1.0, t.switch))
        logs = np.log(w.values(2 ** 18)[t.switch - 1:])
        logs[0] = math.log(1.79769e308)
        assert np.array_equal(t.sums[t.switch:],
                              np.logaddexp.accumulate(logs)[1:])

    def test_sum_past_float64_range_reads_the_weights_once(
            self, weights_evaluated):
        build_table(TabulatedWeights(np.full(2 ** 18, 1e303)), 1.0, 2 ** 18)
        assert weights_evaluated == [2 ** 18]

    @pytest.mark.parametrize("w, p", [
        (PowLogWeights(0.5, -1.0), 1.5), (LogPowerWeights(1.0), 0.5),
        (LINEAR, 1.0), (PowLogWeights(1.0, 1.0), 1.5)])
    def test_every_sum_is_correctly_rounded(self, w, p):
        # against the exact rational sums of the same float64 terms
        M = 2 ** 13
        t = build_table(w, p, M)
        assert not t.log_domain
        terms = (w.values(M) ** p).tolist()
        exact = itertools.accumulate(map(Fraction, terms))
        assert t.sums.tolist() == [float(s) for s in exact]

    @pytest.mark.parametrize("w, p", [
        (ConstantWeights(), 1.0), (LINEAR, 2.0), (LogPowerWeights(1.0), 0.5),
        (PowLogWeights(12.0, 0.0), 5.0),
        (random_monotone_weights(np.random.default_rng(12), 2 ** 17), 1.5)])
    @pytest.mark.parametrize("n", [0, 1, 17, 1000])
    def test_scan_equals_direct_formula(self, w, p, n):
        m_max = 2 ** 17
        table = build_table(w, p, m_max)
        r = class_bounds(w, p, n, m_max, table=table)
        m_lo = max(n, 1)
        marr = np.arange(m_lo, m_max + 1, dtype=np.float64)
        winv_sq = table.inv_sq_slice(m_lo, m_max)
        t_up = (marr - n + 1.0) * winv_sq
        t_low = (marr - n) * winv_sq
        assert r.scan_upper_sq == t_up.max()
        assert r.scan_lower_sq == t_low.max()
        if r.argmax_m is not None:
            assert r.argmax_m == m_lo + int(np.argmax(t_up))


GEOMSPACE = TabulatedWeights(np.geomspace(1, 1e306, 20000))
# (weights, p, an n whose table runs far past the tables of n <= 256,
# into terms or sums near or past the float64 maximum)
LONG_TABLE_FAMILIES = {
    "geomspace, p=1": (GEOMSPACE, 1.0, 16384),
    "geomspace, p=1.5": (GEOMSPACE, 1.5, 16384),
    "powlog(12, 0), p=5": (PowLogWeights(12.0, 0.0), 5.0, 2048),
    "powlog(60, 0), p=2": (PowLogWeights(60.0, 0.0), 2.0, 512),
    "powlog(40, 0), p=2": (PowLogWeights(40.0, 0.0), 2.0, 4096),
}


class TestRowsOfTheirOwn:
    """A table entry depends on (w, p, m) alone, so a row reads the same
    bits alone and in a grid whose table is longer."""

    def test_geomspace_row_alone_equals_the_row_in_a_grid(self):
        alone = class_bounds(GEOMSPACE, 1.0, 16)
        assert alone.lower_sq == 0.0058219985950354455
        assert run_table(GEOMSPACE, 1.0, [16, 16384])[1] == [
            alone, class_bounds(GEOMSPACE, 1.0, 16384)]

    @pytest.mark.parametrize("name", list(LONG_TABLE_FAMILIES))
    def test_row_alone_equals_the_row_beside_a_long_table(self, name):
        w, p, far = LONG_TABLE_FAMILIES[name]
        far_row = class_bounds(w, p, far)
        for n in (1, 4, 16, 64, 256):
            assert run_table(w, p, [n, far])[1] == [
                class_bounds(w, p, n), far_row], n


class TestBoundedMemory:
    """Peak traced allocations of one table and of one scan."""

    M = 2 ** 20

    @staticmethod
    def _peak(fn) -> int:
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_table_holds_two_arrays_and_a_block(self):
        peak = self._peak(lambda: build_table(ConstantWeights(), 1.0, self.M))
        assert peak <= 2 * 8 * 2 ** 20 + 2 * 2 ** 20

    @pytest.mark.parametrize("p", [1.0, 2.0])
    def test_scan_holds_one_scan_array_and_blocks(self, p):
        n = 2 ** 14

        def scan():
            table = build_table(ConstantWeights(), p, self.M)
            tracemalloc.reset_peak()
            class_bounds(ConstantWeights(), p, n, table=table)

        # the table, W_m**-2 turned into the upper envelope in place, and
        # two 2**16-entry blocks of the lower one; at p = 2 the weights
        # read for the plateau are gone before the envelope is allocated
        scan_bytes = 8 * (self.M - n + 1)
        assert self._peak(scan) <= 8 * self.M + scan_bytes + 2 * 2 ** 20

    def test_proved_grid_table_stops_near_twice_n(self):
        # the proof closes near 2n, so the table ends near 2**16, not 2**21
        peak = self._peak(lambda: run_table(
            ConstantWeights(), 1.0, dyadic_grid(2 ** 4, 2 ** 15))[1])
        assert peak < 4 * 2 ** 20

    def test_plateau_read_costs_no_second_weight_array(self):
        # the plateau test reads the two weights the table kept; the scan
        # holds blocks, not an array of the table's length
        w, n = PowLogWeights(-0.5, 2.0), 2 ** 14
        table_peak = self._peak(lambda: run_table(w, 2.0, [n]))
        assert table_peak > 8 * 2 ** 20
        assert class_bounds(w, 2.0, n).status == STATUS_LIMIT
        assert self._peak(lambda: class_bounds(w, 2.0, n)) <= (
            table_peak + 2 ** 16)

    def test_infty_file_head_is_not_one_list(self):
        # the head's array and its square, not a Python list of all terms
        w = TabulatedWeights(np.ones(self.M))
        tracemalloc.start()
        try:
            r = class_error_infty(w, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert r.value_sq == 1048576.0
        assert peak < 24 * 2 ** 20


class TestClassBounds:
    def test_const_p1_n1_against_enumeration(self):
        r = class_bounds(ConstantWeights(), 1.0, 1, m_max=1000)
        up, arg_up, low, arg_low = brute_envelopes(
            np.ones(1000), 1.0, 1, 1000)
        assert r.upper_sq == pytest.approx(up)      # 1.0 at m = 1
        assert r.lower_sq == pytest.approx(low)     # 0.25 at m = 2
        assert r.upper_sq == 1.0 and r.argmax_m == arg_up == 1
        assert r.lower_sq == 0.25 and arg_low == 2
        assert r.status == STATUS_ATTAINED

    def test_linear_weights_p1_n1_against_enumeration(self):
        r = class_bounds(LINEAR, 1.0, 1, m_max=1000)
        up, _, low, _ = brute_envelopes(
            np.arange(1.0, 1001.0), 1.0, 1, 1000)
        assert r.upper_sq == pytest.approx(up)
        assert r.lower_sq == pytest.approx(low)
        assert r.status == STATUS_ATTAINED

    def test_const_p2_limit_is_one(self):
        r = class_bounds(ConstantWeights(), 2.0, 5, m_max=4096)
        assert r.status == STATUS_LIMIT
        assert r.lower_sq == r.upper_sq == 1.0

    def test_const_p2_constant_envelope(self):
        # at n = 1 the upper envelope is identically 1
        r = class_bounds(ConstantWeights(), 2.0, 1, m_max=2048)
        assert r.status == STATUS_LIMIT
        assert r.lower_sq == r.upper_sq == 1.0

    def test_p_within_eps_of_2_is_no_plateau(self):
        # the plateau is p = 2 exactly: at p = 2 - 1e-13 the envelope peaks
        # near m = 2e13, past the scan, at 0.99999999999842 (40-digit
        # mpmath), below the limit 1 a plateau would read
        r = class_bounds(ConstantWeights(), 2.0 - 1e-13, 1)
        assert r.status == STATUS_TRUNCATED
        assert r.lower_sq <= 0.9999999999984

    def test_log_factor_within_eps_of_0_is_no_plateau(self):
        # (1 + ln j)**1e-13 grows without end: at p = 2 the envelope's
        # supremum, 0.99999999999928 near m = 2.8e15 (40-digit mpmath with
        # Euler-Maclaurin), is approached past the scan
        r = class_bounds(LogPowerWeights(1e-13), 2.0, 16)
        assert r.status == STATUS_TRUNCATED
        assert r.lower_sq <= 0.99999999999928

    @pytest.mark.parametrize("p", [2.5, 3.0])
    def test_const_supercritical_divergent(self, p):
        r = class_bounds(ConstantWeights(), p, 1, m_max=1024)
        assert r.status == STATUS_DIVERGENT
        assert math.isinf(r.upper_sq) and math.isinf(r.lower_sq)
        assert math.isfinite(r.scan_upper_sq)

    @pytest.mark.parametrize("alpha", [0.2499999999999, 0.25 - 1e-15])
    def test_growth_just_above_zero_diverges(self, alpha):
        # alpha r < 1 at r = 4 by less than 1e-12, yet the envelope grows
        # like m**(1 - 4 alpha) without bound
        r = class_bounds(PowLogWeights(alpha, 0.0), 4.0, 16)
        assert r.status == STATUS_DIVERGENT
        assert r.upper_sq == r.lower_sq == math.inf

    @pytest.mark.parametrize("p", [3.0, 4.0, 5.0, 10.0, 32.0, math.inf])
    def test_edges_are_decided_on_the_given_floats(self, p):
        # divergent exactly where alpha r < 1, or alpha r = 1 and
        # beta r <= 1, r = 2p/(p - 2) (2 at p = oo), with no band round the
        # edges; x r - 1 has the sign of 2 p x - (p - 2), exact at 60 digits
        edge = 0.5 if p == math.inf else (p - 2.0) / (2.0 * p)
        offsets = [0.0, 4e-13, -4e-13, 1e-12, -1e-12, 3e-12, -3e-12] + [
            k * 2.0 ** -54 for k in (-3, -2, -1, 1, 2, 3)]

        def side(x: float) -> int:
            with mpmath.workdps(60):
                x = mpmath.mpf(x)
                d = (2 * x - 1 if p == math.inf
                     else 2 * mpmath.mpf(p) * x - (mpmath.mpf(p) - 2))
                return (d > 0) - (d < 0)

        for da, db in itertools.product(offsets, repeat=2):
            alpha, beta = edge + da, edge + db
            a, b = side(alpha), side(beta)
            assert _regime(PowLogWeights(alpha, beta), p)[0] == (
                a < 0 or (a == 0 and b <= 0)), (alpha, beta)

    def test_decimal_exponents_are_read_as_their_floats(self):
        # 0.3 is 0.29999999999999998890 as a float, below the edge 3/10 of
        # p = 5; 0.4 is 0.40000000000000002220, above the edge 2/5 of p = 10
        r = class_bounds(PowLogWeights(0.3, 1.0), 5.0, 16)
        assert r.status == STATUS_DIVERGENT
        r = class_bounds(PowLogWeights(0.4, 0.0), 10.0, 16)
        assert r.status == STATUS_TRUNCATED
        assert 0.0 < r.lower_sq <= r.upper_sq < math.inf

    def test_zero_growth_has_a_limit(self):
        assert class_bounds(ConstantWeights(), 2.0, 16).status == STATUS_LIMIT

    @pytest.mark.parametrize("beta", [0.0, 0.2, 0.25])
    @pytest.mark.parametrize("n", [1, 16])
    def test_hoelder_boundary_above_2_diverges(self, beta, n):
        # at p = 4 and alpha = 1/2 - 1/p = 0.25 the Hoelder tail
        # sum_j j**-1 log2(j+1)**(-4 beta) diverges for beta r <= 1, r = 4
        r = class_bounds(PowLogWeights(0.25, beta), 4.0, n)
        assert r.status == STATUS_DIVERGENT
        assert r.upper_sq == r.lower_sq == math.inf

    def test_hoelder_boundary_witness_grows_without_bound(self):
        # the unit-norm witness x_j = H_d**(-1/4) j**(-1/2), j <= d, of
        # powlog(0.25, 0) at p = 4 has sigma_1**2 = (H_d - 1) / sqrt(H_d),
        # 3.54 at d = 2**20, so the class error has no finite limit
        w = PowLogWeights(0.25, 0.0)
        for d, expected in [(2 ** 10, 2.38), (2 ** 16, 3.12)]:
            j = np.arange(1.0, d + 1.0)
            harmonic = math.fsum(1.0 / j)
            x = harmonic ** -0.25 * j ** -0.5
            assert weighted_lp_norm(x, w, 4.0) == pytest.approx(1.0)
            sigma_sq = sigma_n_exact(x, 1) ** 2
            assert sigma_sq == pytest.approx(
                (harmonic - 1.0) / math.sqrt(harmonic), rel=1e-12)
            assert sigma_sq == pytest.approx(expected, abs=0.005)

    def test_logpow_boundary_negative_log_attained(self):
        # growth exponent 0 with decaying log factor: max at finite m
        r = class_bounds(LogPowerWeights(1.0), 2.0, 4, m_max=8192)
        assert r.status == STATUS_ATTAINED

    def test_m_max_too_small_rejected(self):
        with pytest.raises(ValueError):
            class_bounds(ConstantWeights(), 1.0, 5, m_max=5)

    def test_p_inf_rejected(self):
        with pytest.raises(ValueError):
            class_bounds(ConstantWeights(), math.inf, 1)

    def test_p_whose_two_over_p_overflows_is_rejected(self):
        # the smallest subnormal, and 2**-1023, whose 2/p is 2**1024
        for p in (5e-324, math.ldexp(1.0, -1023)):
            with pytest.raises(ValueError, match="2/p finite"):
                class_bounds(ConstantWeights(), p, 1)

    @pytest.mark.parametrize("p, m_max", [
        (1.2e-308, None), (1e-306, None), (1e-305, None), (1e-304, 2 ** 17)])
    def test_p_near_zero_proves_nothing_it_cannot(self, p, m_max):
        # 2/p times the index, or the bound's power, passes the float64
        # range (at 1e-304 only past the default cap); every envelope value
        # past m = 1 falls to 0.0, so no bound may close against it
        for w in (ConstantWeights(), PowLogWeights(1.0, 0.0)):
            r = class_bounds(w, p, 4, m_max=m_max)
            assert (r.lower_sq, r.upper_sq, r.status) == (
                0.0, 0.0, STATUS_TRUNCATED)
            assert r.m_scanned == scan_length(w, 4, m_max)
        # c = 1 and r = B below 2/p times A, so s = 1; a bound past the
        # float64 range is -max
        A, B = np.array([252.0, 2.0 ** 40]), np.array([256.0, 2.0 ** 41])
        got = _log_tail_bound(A, np.log(B), 0.0, p)
        with mpmath.workdps(30):
            for g, A_, B_ in zip(got, A, B):
                ref = float(mpmath.log(A_ + 1)
                            - 2 / mpmath.mpf(p) * mpmath.log(B_ + 1))
                assert g == pytest.approx(
                    max(ref, -np.finfo(np.float64).max), rel=1e-12)

    def test_tabulated_exhaustion_is_not_an_error(self):
        # the bound at the file's end proves the maximum for every
        # nondecreasing continuation of the file
        w = TabulatedWeights(np.arange(1.0, 41.0))
        r = class_bounds(w, 1.0, 1, m_max=4096)
        assert r.status == STATUS_ATTAINED
        assert r.m_scanned == 40

    def test_tabulated_attained_when_confirmed(self):
        w = TabulatedWeights(np.arange(1.0, 2001.0))
        r = class_bounds(w, 1.0, 1, m_max=2000)
        assert r.status == STATUS_ATTAINED
        ref = class_bounds(LINEAR, 1.0, 1, m_max=2000)
        assert r.upper_sq == pytest.approx(ref.upper_sq, rel=1e-12)

    def test_tabulated_divergent_heuristic(self):
        # the envelope m**(1/3) still rises at the file's end: a file's
        # status is read from its scan, not guessed from a trailing slope
        w = TabulatedWeights(np.ones(4096))
        r = class_bounds(w, 3.0, 1, m_max=4096)
        assert r.status == STATUS_TRUNCATED
        assert (r.lower_sq, r.upper_sq) == (r.scan_lower_sq, r.scan_upper_sq)
        # (m - n [+ 1]) / m**(2/3) at m = 4096
        assert r.upper_sq == pytest.approx(16.0, rel=1e-13)
        assert r.lower_sq == pytest.approx(4095 / 256, rel=1e-13)

    def test_tabulated_limit_heuristic(self):
        # the envelope (m - 4) / m rises towards 1 at the file's end
        w = TabulatedWeights(np.ones(8192))
        r = class_bounds(w, 2.0, 5, m_max=8192)
        assert r.status == STATUS_TRUNCATED
        assert (r.lower_sq, r.upper_sq) == (r.scan_lower_sq, r.scan_upper_sq)
        assert r.upper_sq == pytest.approx(8188 / 8192, rel=1e-13)
        assert r.lower_sq == pytest.approx(8187 / 8192, rel=1e-13)

    def test_monotone_in_n(self):
        for w, p in [(ConstantWeights(), 1.0), (LINEAR, 2.0),
                     (LogPowerWeights(1.0), 1.0)]:
            prev = None
            for n in range(1, 40):
                r = class_bounds(w, p, n, m_max=4096)
                assert r.status == STATUS_ATTAINED
                if prev is not None:
                    assert r.upper_sq <= prev.upper_sq + 1e-15
                    assert r.lower_sq <= prev.lower_sq + 1e-15
                prev = r

    def test_sum_past_float64_range_scans_to_the_end(self):
        # W_m**p = m * e**699.9 leaves the float64 range near m = 19,500,
        # while the envelope (m - n + 1) / W_m**2 keeps growing like m**0.99
        # to the file's end
        w = TabulatedWeights(np.full(2 ** 16, 33.1))
        r = class_bounds(w, 200.0, 1024)
        assert r.m_scanned == 2 ** 16
        assert r.status == STATUS_TRUNCATED
        assert r.upper_sq == r.scan_upper_sq == pytest.approx(
            (2 ** 16 - 1023) / (33.1 ** 2 * 2.0 ** (16 * 2 / 200)),
            rel=1e-12)

    def test_reused_table(self):
        table = build_table(LINEAR, 1.0, 4096)
        a = class_bounds(LINEAR, 1.0, 3, m_max=4096, table=table)
        b = class_bounds(LINEAR, 1.0, 3, m_max=4096)
        assert a == b

    def test_passed_table_is_used_as_given(self):
        # a table of another p, or one shorter than the scan, is refused,
        # not rebuilt; this scan's proof closes at m = 256
        with pytest.raises(ValueError, match="table is for p = 2.0, not 1"):
            class_bounds(LINEAR, 1.0, 3, m_max=4096,
                         table=build_table(LINEAR, 2.0, 4096))
        with pytest.raises(ValueError, match="table covers m in"):
            class_bounds(LINEAR, 1.0, 3, m_max=4096,
                         table=build_table(LINEAR, 1.0, 255))
        assert class_bounds(LINEAR, 1.0, 3, m_max=4096,
                            table=build_table(LINEAR, 1.0, 256)).m_scanned \
            == 256

    @pytest.mark.parametrize("w, p, n, m_max, missing", [
        # plateau, cap 1088: the plateau test reads w_1087 first
        (ConstantWeights(), 2.0, 17, None, 1087),
        # proved, open at 1500: the check at the cap reads w_1500
        (LogPowerWeights(0.5), 2.0, 256, 1500, 1500)])
    def test_passed_table_must_keep_the_cap(self, w, p, n, m_max, missing):
        # neither cap is a multiple of 256, and a table built without them
        # keeps no weight there: the row is refused, not patched from w
        end = scan_length(w, n, m_max)
        table = build_table(w, p, 2048)
        assert end not in table.weights
        with pytest.raises(ValueError,
                           match=f"^table keeps no weight w_{missing}$"):
            class_bounds(w, p, n, m_max, table=table)
        # a table that keeps them, as run_table's do, gives the row
        table = build_table(w, p, 2048, keep=(end - 1, end))
        r = class_bounds(w, p, n, m_max, table=table)
        assert r == class_bounds(w, p, n, m_max)
        assert r.status == (STATUS_LIMIT if m_max is None
                            else STATUS_TRUNCATED)

    def test_witness_consistency(self):
        # every equal-entry witness stays below the reported lower envelope
        for w in (ConstantWeights(), LINEAR):
            n, m_max = 2, 256
            r = class_bounds(w, 1.0, n, m_max=m_max)
            table = build_table(w, 1.0, m_max)
            for m in range(n + 1, m_max + 1, 13):
                inv_sq = table.inv_sq_slice(m, m)[0]
                seq = np.full(m, math.sqrt(inv_sq))
                got = sigma_n_exact(seq, n) ** 2
                assert got == pytest.approx((m - n) * inv_sq, rel=1e-10)
                assert got <= r.lower_sq + 1e-12

    def test_membership_consistency(self, rng):
        # random unit-ball elements never beat the upper bound
        w = LINEAR
        p, n = 1.0, 3
        r = class_bounds(w, p, n, m_max=2048)
        for _ in range(1000):
            size = int(rng.integers(1, 65))
            x = rng.exponential(size=size)
            x /= weighted_lp_norm(x, w, p)
            assert sigma_n_exact(x, n) ** 2 <= r.upper_sq + 1e-9


class TestPlateauLimit:
    """p = 2 on powlog weights that end on a plateau c: the limit c**-2,
    read from the weights once the scan has reached the plateau."""

    def test_short_of_the_plateau_is_truncated(self):
        # the formula peaks near i = e**50, far past both scans, so neither
        # reaches the plateau and nothing is proved; both scans find the
        # same maxima, the upper one at m = 426
        w = PowLogWeights(-0.01, 0.5)
        rows = [class_bounds(w, 2.0, 64), class_bounds(w, 2.0, 64, 2 ** 20)]
        for r in rows:
            assert (r.status, r.argmax_m) == (STATUS_TRUNCATED, None)
            assert r.upper_sq == 0.129160571929646
        assert rows[0].lower_sq == rows[1].lower_sq

    @pytest.mark.parametrize("alpha, beta, n_min, expected", [
        (-0.5, 2.0, 16, 0.048293905047940168),
        (-0.1, 0.5, 16, 0.37631579808882023),
        (-0.5, 3.0, 64, 0.00095659077887480886),
    ])
    def test_limit_is_exact_and_the_same_for_every_n(
            self, alpha, beta, n_min, expected):
        ref = _ref.powlog_plateau_sq(alpha, beta)
        assert abs(ref - expected) <= 1e-16 * ref
        n_values = dyadic_grid(n_min, 1024)
        rows = run_table(PowLogWeights(alpha, beta), 2.0, n_values)[1]
        assert {(r.status, r.lower_sq, r.upper_sq) for r in rows} == {
            (STATUS_LIMIT, rows[0].upper_sq, rows[0].upper_sq)}
        assert abs(rows[0].upper_sq - ref) <= 1e-15 * ref

    def test_attained_row_lower_rises_to_the_limit(self):
        # the upper envelope peaks at m = 1 with 1 / w_1**2 = 1, above
        # c**-2; the lower envelope stays below c**-2 over the scan
        r = class_bounds(PowLogWeights(-0.5, 1.0), 2.0, 1)
        assert (r.status, r.upper_sq, r.argmax_m) == (STATUS_ATTAINED, 1.0, 1)
        assert r.scan_lower_sq < r.lower_sq
        ref = _ref.powlog_plateau_sq(-0.5, 1.0)
        assert abs(ref - 0.74192919069577879) <= 1e-16 * ref
        assert abs(r.lower_sq - ref) <= 1e-15 * ref


class TestUnprovedAbove2:
    """At 2 < p < oo nothing proves a maximum, and the upper envelope is no
    bound: a row that the exponents do not show divergent reads
    ``truncated-unknown``, wherever its scan peaks."""

    @pytest.mark.parametrize("last_sum", [256.0 ** 2, 256.0 ** 2 + 1.0])
    def test_peak_inside_the_scan_is_truncated(self, last_sum):
        # p = 4, n = 0: the upper envelope is (m + 1) / sqrt(S_m); with
        # S_m = 128 (m + 1) up to m = 127 and 256 (m + 1) past it, it is
        # exactly 1 at m = 127 and below 1 elsewhere, up to m = 255, whose
        # sum S_255 = 256**2 ties the maximum and 256**2 + 1 does not
        m = np.arange(1.0, 256.0)
        sums = np.where(m <= 127, 128.0, 256.0) * (m + 1)
        sums[-1] = last_sum
        table = CumulativeWeightTable(p=4.0, sums=sums, switch=255,
                                      weights={})
        r = class_bounds(TabulatedWeights(np.ones(255)), 4.0, 0, table=table)
        assert (r.status, r.argmax_m, r.upper_sq, r.m_scanned) == (
            STATUS_TRUNCATED, None, 1.0, 255)


class TestEngineFreeWitness:
    """The truncated p = oo witness of ``_ref.infty_witness_sq`` is a unit
    vector built from the weights alone.  No bound may lie below it, and it
    lies below the p = oo value, since the weighted lp ball grows with p."""

    FAMILIES = {
        "powlog(1, 0)": PowLogWeights(1.0, 0.0),
        "powlog(0.5, -1)": PowLogWeights(0.5, -1.0),
        "powlog(1, 1)": PowLogWeights(1.0, 1.0),
        "const": ConstantWeights(),
        "logpow(1)": LogPowerWeights(1.0),
    }
    P = [0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 4.0, 8.0, 32.0]
    N = [1, 4, 16, 256]

    @pytest.fixture(scope="class")
    def sweep(self):
        return [(name, p, r, _ref.infty_witness_sq(w, p, r.n)[0])
                for name, w in self.FAMILIES.items() for p in self.P
                for r in run_table(w, p, self.N)[1]]

    def test_witness_is_a_unit_vector_with_its_value(self):
        # the row that beat the parent's attained upper_sq by most
        w, p, n = PowLogWeights(0.5, -1.0), 8.0, 256
        value, K = _ref.infty_witness_sq(w, p, n)
        x = K ** (-1.0 / p) / w.values(K)
        assert weighted_lp_norm(x, w, p) == pytest.approx(1.0, rel=1e-14)
        assert sigma_n_exact(x, n) ** 2 == pytest.approx(value, rel=1e-13)
        assert value > class_bounds(w, p, n).upper_sq

    def test_no_claimed_bound_below_the_witness(self, sweep):
        assert len(sweep) == 180
        beaten = [(name, p, r.n, r.status, r.upper_sq, x)
                  for name, p, r, x in sweep
                  if r.status in (STATUS_ATTAINED, STATUS_LIMIT)
                  and r.upper_sq < x * (1.0 - 1e-12)]
        assert beaten == []

    def test_no_claim_above_2(self, sweep):
        assert {r.status for _, p, r, _ in sweep if p > 2} == {
            STATUS_DIVERGENT, STATUS_TRUNCATED}

    @pytest.mark.parametrize("name", [
        "powlog(1, 0)", "powlog(0.5, -1)", "powlog(1, 1)"])
    def test_witness_below_the_infty_value(self, sweep, name):
        infty = {n: class_error_infty(self.FAMILIES[name], n) for n in self.N}
        for family, p, r, x in sweep:
            if family == name:
                top = infty[r.n]
                assert x <= top.value_sq + top.truncation_bound, (p, r.n)


class TestClassBoundsGrid:
    @pytest.mark.parametrize("p", [0.5, 1.0, 2.0])
    def test_matches_class_bounds_per_n(self, p):
        grid = dyadic_grid(1, 256)
        for w in (ConstantWeights(), LINEAR, LogPowerWeights(1.0)):
            assert run_table(w, p, grid)[1] == [
                class_bounds(w, p, n) for n in grid]
            assert run_table(w, p, grid, 8192)[1] == [
                class_bounds(w, p, n, m_max=8192) for n in grid]

    def test_clipped_to_tabulated_length(self):
        # default_m_max(2048) = 131072 is past the end of the weights, but
        # the proof closes at the first multiple of 256 past about 1.4 n
        w = TabulatedWeights(np.arange(1.0, 4097.0))
        grid = dyadic_grid(16, 2048)
        got = run_table(w, 1.5, grid)[1]
        assert [r.m_scanned for r in got] == (
            [256] * 4 + [512, 768, 1536, 3072])
        assert got == [class_bounds(w, 1.5, n) for n in grid]

    def test_bad_m_max_is_named(self):
        with pytest.raises(ValueError, match="m_max must be >= n"):
            run_table(ConstantWeights(), 1.0, [16, 64], 0)
        with pytest.raises(ValueError, match="m_max must be >= n"):
            run_table(ConstantWeights(), 1.0, [16, 64], 40)

    def test_empty_grid(self):
        assert run_table(ConstantWeights(), 1.0, []) == (None, [])


def _full_range_reference(table, n, m_hi):
    """lower, upper and argmax over m in [max(n, 1), m_hi] in one pass."""
    m_lo = max(n, 1)
    inv_sq = table.inv_sq_slice(m_lo, m_hi)
    k = np.arange(m_lo - n, m_hi - n + 1, dtype=np.float64)
    t_up = (k + 1.0) * inv_sq
    i = int(np.argmax(t_up))
    return float((k * inv_sq).max()), float(t_up[i]), m_lo + i


PROVED_FAMILIES = dict(
    builtin_families(),
    random=random_monotone_weights(np.random.default_rng(31),
                                   default_m_max(2 ** 12)))


class TestProvedScan:
    """At p <= 2 the scan stops where the bound past it proves the maximum,
    with the values of a scan to the cap."""

    @pytest.mark.parametrize("p", [0.5, 1.0, 1.5, 1.9, 2.0])
    @pytest.mark.parametrize("name", list(PROVED_FAMILIES))
    def test_values_equal_the_full_range(self, name, p):
        w = PROVED_FAMILIES[name]
        grid = dyadic_grid(1, 2 ** 12)
        table = build_table(w, p, default_m_max(grid[-1]))
        for r in run_table(w, p, grid)[1]:
            lower, upper, argmax = _full_range_reference(
                table, r.n, default_m_max(r.n))
            assert (r.scan_lower_sq, r.scan_upper_sq) == (lower, upper)
            if r.status == STATUS_LIMIT:   # const at p = 2, scanned to the cap
                assert r.m_scanned == default_m_max(r.n)
                continue
            assert r.status == STATUS_ATTAINED, (name, p, r.n)
            assert (r.lower_sq, r.upper_sq, r.argmax_m) == (
                lower, upper, argmax), (name, p, r.n)
            assert r.m_scanned % _STRIDE == 0
            assert r.m_scanned < default_m_max(r.n) or r.n < 16

    # const at p = 2 is a plateau, scanned to the cap, not proved
    @pytest.mark.parametrize("name, p", [
        (name, p) for name in PROVED_FAMILIES for p in (0.5, 1.0, 2.0)
        if (name, p) != ("const", 2.0)])
    def test_bound_at_the_stop_covers_the_vertices_past_it(self, name, p):
        # the lower envelope's bound, with its margin, against the 50-digit
        # vertex maximum over [M + 1, 16 M]; the upper vertices there stay
        # at or below the row's upper_sq, which no bound of their own
        # proves: (m - n + 1) W_m**-2 <= L + W_{m_1}**-2 <= U
        w = PROVED_FAMILIES[name]
        rows = run_table(w, p, [0, 3, 40])[1]
        top = 16 * max(r.m_scanned for r in rows)
        ref = _ref.table(w, p, top)
        table = build_table(w, p, top)
        for r in rows:
            M, n = r.m_scanned, r.n
            assert r.status == STATUS_ATTAINED
            margin = _proof_margin(table, M)
            log_B = math.log(table.sums[M - 1])
            log_c = p * math.log(table.weight(M))
            bound = math.exp(float(_log_tail_bound(
                M - n, log_B, log_c, p)) + margin)
            assert _ref.envelope_max(ref, n, M + 1, top, 0) <= bound, (
                name, p, n)
            assert _ref.envelope_max(ref, n, M + 1, top, 1) <= r.upper_sq, (
                name, p, n)

    @pytest.mark.parametrize("p", [0.5, 1.0, 1.5, 2.0])
    def test_stop_is_the_same_alone_and_in_a_grid(self, p):
        w = PROVED_FAMILIES["random"]
        grid = [0, 1, 5, 17, 100, 333, 1000, 2 ** 12]
        for m_max in (None, 3000, 2 ** 13 + 1):
            ns = [n for n in grid if m_max is None or n < m_max]
            alone = [class_bounds(w, p, n, m_max) for n in ns]
            assert run_table(w, p, ns, m_max)[1] == alone
            assert run_table(w, p, ns[::-1], m_max)[1] == alone[::-1]

    def test_cap_before_the_proof_is_truncated(self):
        # (m - 1000) / m**2 still rises at the cap m = 1500 (its peak is at
        # m = 2000), so nothing past the cap is ruled out
        r = class_bounds(ConstantWeights(), 1.0, 1000, m_max=1500)
        assert (r.status, r.m_scanned, r.argmax_m) == (
            STATUS_TRUNCATED, 1500, None)
        assert r.lower_sq == r.scan_lower_sq == 500 * 1500.0 ** -2

    def test_the_cap_is_a_check_index(self):
        # a 40-entry file has no multiple of the stride, and its proof
        # closes at its end; so does a cap of 300 for n = 100 on const
        r = class_bounds(TabulatedWeights(np.arange(1.0, 41.0)), 1.0, 1)
        assert (r.status, r.m_scanned) == (STATUS_ATTAINED, 40)
        r = class_bounds(ConstantWeights(), 1.0, 100, m_max=300)
        assert (r.status, r.m_scanned, r.argmax_m) == (
            STATUS_ATTAINED, 256, 198)

    @pytest.mark.parametrize("p", [2.5, 5.0])
    def test_above_2_scans_to_the_cap(self, p):
        r = class_bounds(LINEAR, p, 40)
        assert r.m_scanned == default_m_max(40)

    @pytest.mark.parametrize("w, status", [
        # no p <= 2 row diverges; on weights this flat the proof does not
        # close by the cap
        (PowLogWeights(1e-13, -1.0), STATUS_TRUNCATED),
        (ConstantWeights(), STATUS_LIMIT),
        (PowLogWeights(-0.01, 0.5), STATUS_TRUNCATED)])  # short of the plateau
    def test_exponent_rows_scan_to_the_cap(self, w, status):
        r = class_bounds(w, 2.0, 40)
        assert (r.status, r.m_scanned) == (status, default_m_max(40))
        # every weight is at least 1, so W_m**2 >= m
        assert 0.0 < r.lower_sq <= r.upper_sq <= 2.0


class TestSandwichWidth:
    """upper_sq - lower_sq is at most W_n**-2 (W_1**-2 at n = 0): the two
    envelopes differ by W_m**-2 at each m, and W_m >= W_n past n."""

    def test_const_p1_n1(self):
        r = class_bounds(ConstantWeights(), 1.0, 1, m_max=1024)
        assert r.upper_sq - r.lower_sq == pytest.approx(0.75)
        assert r.upper_sq - r.lower_sq <= 1.0  # W_1**-2

    def test_limit_case_zero_width(self):
        r = class_bounds(ConstantWeights(), 2.0, 5, m_max=4096)
        assert r.upper_sq - r.lower_sq == 0.0

    def test_linear_weights_gap_below_first_inverse_square(self):
        r = class_bounds(LINEAR, 1.0, 1, m_max=1024)
        assert r.upper_sq - r.lower_sq <= 1.0

    def test_width_bound_holds_broadly(self, rng):
        families = dict(builtin_families(),
                        random=random_monotone_weights(rng, 4096))
        for name, w in families.items():
            for p in (0.5, 1.0, 1.5, 2.0):
                table = build_table(w, p, 4096)
                for r in run_table(w, p, [0, 1, 4, 16, 64], 4096)[1]:
                    if r.status == STATUS_DIVERGENT:
                        continue
                    width = r.upper_sq - r.lower_sq
                    assert 0.0 <= width, (name, p, r.n)
                    k = max(r.n, 1)
                    assert width <= table.inv_sq_slice(k, k)[0] + 1e-15, (
                        name, p, r.n)

    def test_divergent_has_no_width(self):
        r = class_bounds(ConstantWeights(), 3.0, 1, m_max=1024)
        assert r.status == STATUS_DIVERGENT
        assert r.upper_sq == r.lower_sq == math.inf


class TestClassErrorInfty:
    def test_geometric_tail(self):
        w = TabulatedWeights([2.0 ** j for j in range(1, 40)])
        r = class_error_infty(w, 2)
        # independent check: direct geometric summation
        direct = sum(4.0 ** -j for j in range(3, 40))
        assert r.value_sq == pytest.approx(direct, rel=1e-15)
        assert r.value_sq == pytest.approx(1 / 48, abs=1e-12)

    def test_const_divergent(self):
        assert class_error_infty(ConstantWeights(), 0).status == STATUS_DIVERGENT

    def test_logpow_divergent(self):
        assert class_error_infty(LogPowerWeights(2.0), 3).status == STATUS_DIVERGENT

    def test_powlog_critical_divergent(self):
        # 2*alpha == 1 with no log help
        assert class_error_infty(PowLogWeights(0.5, 0.0), 1).status == STATUS_DIVERGENT

    @pytest.mark.parametrize("alpha", [0.4999999999996, 0.5 - 1e-13])
    def test_just_below_boundary_diverges_despite_log(self, alpha):
        # sum j**(-2 alpha) log2(j+1)**(-2 beta) diverges for every beta
        # once 2 alpha < 1, however close to 1
        r = class_error_infty(PowLogWeights(alpha, 1.0), 16)
        assert r.status == STATUS_DIVERGENT
        assert math.isinf(r.value_sq)

    def test_inverse_square_tail_matches_polygamma(self):
        r = class_error_infty(LINEAR, 10)
        ref = float(polygamma(1, 11))
        assert r.status == STATUS_CONVERGED
        assert abs(r.value_sq - ref) <= max(r.truncation_bound, 1e-12)
        assert r.value_sq == pytest.approx(ref, abs=1e-10)

    def test_boundary_log_convergent(self):
        # terms 1/(j * log2(j+1)**2) converge; bracket the value with the
        # closed-form tail integral of 1/(x ln**2 x), no quadrature involved:
        #   ln(2)**2 / ln(J+2)  <=  sum_{j>J}  <=  ln(2)**2 / ln(J)
        w = PowLogWeights(0.5, 1.0)
        r = class_error_infty(w, 4)
        assert r.status == STATUS_CONVERGED
        J = 200000
        head = math.fsum((w.values(J)[4:] ** -2.0).tolist())
        lo = head + math.log(2) ** 2 / math.log(J + 2)
        hi = head + math.log(2) ** 2 / math.log(J)
        assert lo - 1e-9 <= r.value_sq <= hi + 1e-9
        assert r.truncation_bound <= 1e-9

    def test_negative_beta_convergent(self):
        r = class_error_infty(PowLogWeights(1.0, -1.0), 5)
        assert r.status == STATUS_CONVERGED
        # independent partial sum is a strict lower bound; the remainder
        # past 2e5 terms is below 2e-3 by the integral comparison
        w = PowLogWeights(1.0, -1.0)
        partial = math.fsum((w.values(200000)[5:] ** -2.0).tolist())
        assert partial <= r.value_sq <= partial + 2e-3

    def test_matches_inverse_weight_witness(self):
        # the tail sum equals sigma_n of the inverse-weight sequence exactly
        rng = np.random.default_rng(7)
        w = random_monotone_weights(rng, 200)
        inv = 1.0 / w.values(200)
        for n in (0, 3, 17):
            r = class_error_infty(w, n)
            assert r.value_sq == pytest.approx(
                sigma_n_exact(inv, n) ** 2, rel=1e-15)

    def test_tabulated_reports_unknown_remainder(self):
        w = TabulatedWeights([2.0 ** j for j in range(1, 30)])
        r = class_error_infty(w, 2)
        assert r.status == STATUS_TRUNCATED
        assert math.isinf(r.truncation_bound)

    # terms 1, j**-1 and j**-0.8: a file is summed to its end, whatever
    # its trailing slope
    @pytest.mark.parametrize("exponent", [0.0, 0.5, 0.4])
    def test_tabulated_trailing_slope(self, exponent):
        j = np.arange(1, 4097, dtype=np.float64)
        r = class_error_infty(TabulatedWeights(j ** exponent), 0)
        assert r.status == STATUS_TRUNCATED
        assert r.value_sq == math.fsum(((j ** exponent) ** -2.0).tolist())
        assert math.isinf(r.truncation_bound)
        assert r.terms_summed == 4096

    def test_n_beyond_table(self):
        w = TabulatedWeights([1.0, 2.0])
        r = class_error_infty(w, 5)
        assert r.value_sq == 0.0 and r.status == STATUS_TRUNCATED

    def test_requested_tolerance_reached(self):
        r = class_error_infty(LINEAR, 3)
        assert r.truncation_bound <= _TAIL_TOL == 1e-12

    @pytest.mark.parametrize("c", [1e-9, 1e-6, 1e-3, 1.0, 2.0])
    @pytest.mark.parametrize("X", [64.5, 1e6 + 0.5, 2.0 ** 17 + 0.5])
    def test_tail_integral_beta_zero_closed_form(self, c, X):
        # beta = 0: the integral of x**(-2a) over [X, oo) is X**-c / c
        alpha = (1.0 + c) / 2.0
        value, err = _tail_integral(alpha, 0.0, X, epsabs=0.0)
        with mpmath.workdps(30):
            c_exact = 2 * mpmath.mpf(alpha) - 1
            ref = mpmath.mpf(X) ** -c_exact / c_exact
            gap = float(abs(mpmath.mpf(value) - ref))
            assert gap <= 1e-13 * float(ref)
        assert gap <= err

    @pytest.mark.parametrize("c", [1e-9, 1e-6, 1e-3, 1.0, 2.0])
    def test_power_tail_matches_hurwitz_zeta(self, c):
        # sum_{j > n} j**-(1 + c) is the Hurwitz zeta value zeta(1 + c, n + 1)
        alpha = (1.0 + c) / 2.0
        r = class_error_infty(PowLogWeights(alpha, 0.0), 10)
        # the sums, near 1/c (1e9, 1e6 and 998), miss 1e-12 on the rule's
        # rounding allowance alone
        missed = c <= 1e-3
        assert r.status == (STATUS_TRUNCATED if missed else STATUS_CONVERGED)
        assert (r.truncation_bound > _TAIL_TOL) == missed
        with mpmath.workdps(30):
            ref = mpmath.zeta(2 * mpmath.mpf(alpha), 11)
            gap = float(abs(mpmath.mpf(r.value_sq) - ref))
        assert gap <= r.truncation_bound

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("beta", [0.5000001, 0.505, 0.51, 0.6, 1.0])
    def test_boundary_tail_near_half_beta(self, beta):
        # 2 alpha = 1: the terms decay like 1/(j log2(j)**(2 beta)), and as
        # beta -> 1/2 almost all of the sum lies past the head (the integral
        # past 80.5 is 3.47e6 at beta = 0.5000001)
        r = class_error_infty(PowLogWeights(0.5, beta), 16)
        # the rule's rounding allowance alone misses 1e-12 on the 3.47e6
        # and 68.0 integrals of the first two
        missed = beta in (0.5000001, 0.505)
        assert r.status == (STATUS_TRUNCATED if missed else STATUS_CONVERGED)
        assert (r.truncation_bound > _TAIL_TOL) == missed
        ref = _ref.powlog_tail_sq(0.5, beta, 16)
        with mpmath.workdps(_ref.DIGITS):
            gap = float(abs(mpmath.mpf(r.value_sq) - ref))
        assert gap <= r.truncation_bound

    @pytest.mark.parametrize("alpha, beta", [(0.5, 1.0), (1.0, 0.0)])
    def test_n_past_the_reference_head(self, alpha, beta):
        # the reference sums its own head to 2n here, not to K = 1000
        r = class_error_infty(PowLogWeights(alpha, beta), 4096)
        assert r.status == STATUS_CONVERGED
        ref = _ref.powlog_tail_sq(alpha, beta, 4096)
        with mpmath.workdps(_ref.DIGITS):
            gap = float(abs(mpmath.mpf(r.value_sq) - ref))
        assert gap <= r.truncation_bound

    # beta >= 0: a head of 64 terms past n and the third-order closure;
    # the first-order bound |g'|/12 took 8,176 to 65,538 terms here
    @pytest.mark.parametrize("alpha, beta", [(1.0, 0.0), (0.5, 1.0)])
    @pytest.mark.parametrize("n", [16, 4096, 65536])
    def test_short_head_at_every_n(self, alpha, beta, n):
        r = class_error_infty(PowLogWeights(alpha, beta), n)
        assert r.status == STATUS_CONVERGED
        assert r.terms_summed <= 256

    def test_near_critical_power_has_a_short_head(self):
        # j**-1.1: the first-order bound took 262,128 terms
        r = class_error_infty(PowLogWeights(0.55, 0.0), 16)
        assert r.status == STATUS_CONVERGED
        assert r.terms_summed <= 2 ** 12

    # beta = 0: sum_{j > n} j**(-2 alpha) is zeta(2 alpha, n + 1), a
    # reference with no Euler-Maclaurin in it
    @pytest.mark.parametrize("alpha", [0.5 + 5e-10, 0.5000005, 0.5005, 0.55,
                                       0.75, 1.0, 1.5, 3.0, 12.0])
    @pytest.mark.parametrize("n", [0, 16, 4096, 65536])
    def test_power_tail_within_bound_of_hurwitz_zeta(self, alpha, n):
        r = class_error_infty(PowLogWeights(alpha, 0.0), n)
        with mpmath.workdps(30):
            ref = mpmath.zeta(2 * mpmath.mpf(alpha), n + 1)
            assert abs(mpmath.mpf(r.value_sq) - ref) <= r.truncation_bound

    @pytest.mark.parametrize("alpha, beta", [
        (0.5, 1.0), (0.5, 3.0), (0.75, 2.5), (1.0, 1.0), (1.5, 0.5)])
    @pytest.mark.parametrize("n", [0, 16, 4096])
    def test_log_tail_within_bound_of_reference(self, alpha, beta, n):
        r = class_error_infty(PowLogWeights(alpha, beta), n)
        assert r.status == STATUS_CONVERGED
        ref = _ref.powlog_tail_sq(alpha, beta, n)
        with mpmath.workdps(_ref.DIGITS):
            assert abs(mpmath.mpf(r.value_sq) - ref) <= r.truncation_bound

    def test_power_just_past_the_edge_converges(self):
        # 2 alpha - 1 = 8e-13: the sum is finite, about 1.25e12, and the
        # rule's rounding allowance alone misses 1e-12 on it
        alpha = 0.5 + 4e-13
        r = class_error_infty(PowLogWeights(alpha, 0.0), 16)
        assert r.status == STATUS_TRUNCATED
        with mpmath.workdps(30):
            ref = mpmath.zeta(2 * mpmath.mpf(alpha), 17)
            assert abs(mpmath.mpf(r.value_sq) - ref) <= r.truncation_bound

    def test_head_reads_no_weight_before_it(self, monkeypatch):
        # the head's weights come from the formula, w_1..w_n are never
        # evaluated; the bits are those of the running max of every weight
        # (the constructor checks w_1..w_1024 before the patch)
        w = PowLogWeights(1.0, 0.0)

        def refused(self, m):
            raise AssertionError(f"values({m}) evaluated")

        monkeypatch.setattr(PowLogWeights, "values", refused)
        r = class_error_infty(w, 65536)
        assert (r.value_sq.hex(), r.truncation_bound.hex()) == (
            "0x1.ffff000055553p-17", "0x1.144c99f066e7fp-44")
        assert (r.status, r.terms_summed) == (STATUS_CONVERGED, 64)

    @pytest.mark.parametrize("n, j", [(137250, 137271), (200000, 200001)])
    def test_non_finite_head_weight_is_named(self, n, j):
        # j**60 first overflows at j = 137271: inside the head of n = 137250,
        # before the head of n = 200000, whose first weight is named
        with pytest.raises(ValueError, match=f"^weight w_{j} is not finite$"):
            class_error_infty(PowLogWeights(60.0, 0.0), n)

    @pytest.mark.parametrize("beta", [-6.0, -17.0, -100.0])
    def test_plateau_past_the_head_is_a_domain_error(self, monkeypatch,
                                                      beta):
        # at alpha = 1 the running max stays at w_j = 1 up to about 2**29.5
        # for beta = -6, and further for the others; the head may not read
        # past _MAX_TERMS weights on the way to saying so
        real = PowLogWeights.raw_value

        def capped(self, j):
            assert np.size(j) <= _MAX_TERMS, f"requested {np.size(j)} weights"
            return real(self, j)

        monkeypatch.setattr(PowLogWeights, "raw_value", capped)
        with pytest.raises(ValueError, match="plateau w_j = 1"):
            class_error_infty(PowLogWeights(1.0, beta), 16)

    @pytest.mark.parametrize("epsabs", [0.0, 2.5e-13])
    @pytest.mark.parametrize("alpha, beta, X", [
        (30.0, -150.0, 2.0 ** 23 + 0.5),
        (30.0, -150.0, 1024.5),
        (60.0, -300.0, 1024.5),
        (60.0, -300.0, 2.0 ** 23 + 0.5),
        (1.0, 150.0, 1024.5),
        (3.0, 40.0, 64.5),
        (1.0, -5.0, 64.5),
        (1.0, 0.0, 1024.5),
        # 2 alpha = 1 with 2 beta > 1
        (0.5, 150.0, 1024.5),
        (0.5, 1.0, 2.0 ** 23 + 0.5),
        (0.5, 0.5000001, 64.5),
    ])
    def test_tail_integral_error_covers_reference(self, alpha, beta, X,
                                                   epsabs):
        # a rounding error in ln X is raised to the power 2 beta, so at
        # |beta| = 150 it alone is over 64 eps of the value; the points
        # keep the value inside the float64 range
        value, err = _tail_integral(alpha, beta, X, epsabs)
        ref = _tail_integral_ref(alpha, beta, X)
        with mpmath.workdps(_ref.DIGITS):
            assert abs(mpmath.mpf(value) - ref) <= err

    @pytest.mark.parametrize("alpha, beta, X", [
        # below the float64 range: 9.0e-344 and 3.8e-328 round to 0.0,
        # 1.6e-312 is subnormal
        (30.0, 150.0, 64.5),
        (30.0, 140.0, 64.5),
        (30.0, 130.0, 64.5),
        # in range at 4.2e270, but the integrand peaks about e**790 above
        # its value at X
        (10.5, -150.0, 1.5),
    ])
    def test_tail_integral_outside_the_normal_range(self, alpha, beta, X):
        value, err = _tail_integral(alpha, beta, X, epsabs=0.0)
        ref = _tail_integral_ref(alpha, beta, X)
        with mpmath.workdps(_ref.DIGITS):
            assert abs(mpmath.mpf(value) - ref) <= err
        assert err <= 1e-10 * value + 2.0 * math.ulp(0.0)

    def test_tail_integral_past_the_float64_max_raises(self):
        ref = _tail_integral_ref(1.0, -150.0, 64.5)  # 1.7e662
        assert ref > np.finfo(np.float64).max
        with pytest.raises(OverflowError, match="past the float64 range"):
            _tail_integral(1.0, -150.0, 64.5, epsabs=0.0)

    def test_tail_where_one_factor_overflows(self):
        # log2(x + 1)**300 overflows at x = 2**23, x**-60 * log2(x + 1)**300
        # does not: past the plateau of powlog(30, -150) the tail is small
        alpha, beta, X = 30.0, -150.0, 2.0 ** 23 + 0.5
        value, _ = _tail_integral(alpha, beta, X, epsabs=0.0)
        deriv = _tail_integrand_derivatives(alpha, beta, X)[1]
        with mpmath.workdps(30):
            def g(x):
                return x ** -60 * mpmath.log(x + 1, 2) ** 300
            ref = mpmath.quad(g, [X, 2 * X, 8 * X, 64 * X, mpmath.inf])
            ref_deriv = mpmath.diff(g, X)
        assert value == pytest.approx(float(ref), rel=1e-12)
        assert deriv == pytest.approx(float(ref_deriv), rel=1e-12)

    def test_overflowing_derivative_is_inf(self):
        assert all(map(math.isinf,
                       _tail_integrand_derivatives(1.0, -1000.0, 64.5)))


class TestTailIntegrandDerivatives:
    @pytest.mark.parametrize("alpha, beta", [
        (1.0, 0.0), (0.5, 1.0), (0.75, 2.5), (12.0, 0.0)])
    @pytest.mark.parametrize("x", [64.5, 1e4 + 0.5, 2.0 ** 20 + 0.5])
    def test_against_mpmath_diff(self, alpha, beta, x):
        got = _tail_integrand_derivatives(alpha, beta, x)
        # g is completely monotone at beta >= 0: g**(k) has the sign (-1)**k
        assert all((-1) ** k * d > 0 for k, d in enumerate(got))
        with mpmath.workdps(40):
            a, b = mpmath.mpf(alpha), mpmath.mpf(beta)

            def g(t):
                return t ** (-2 * a) * mpmath.log(t + 1, 2) ** (-2 * b)

            for k in (0, 1, 3, 5):
                ref = mpmath.diff(g, mpmath.mpf(x), k)
                assert abs(got[k] - ref) <= 1e-14 * abs(ref), k
