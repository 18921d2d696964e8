import math

import mpmath
import numpy as np
import pytest
from scipy.special import logsumexp, polygamma

from nterm import (
    ConstantWeights,
    LogPowerWeights,
    PowLogWeights,
    TabulatedWeights,
    TableTruncationError,
    build_table,
    class_bounds,
    class_bounds_grid,
    class_error_infty,
    dyadic_grid,
    extremal_sequence,
    sandwich_width,
    sigma_n_exact,
    weighted_lp_norm,
)
from nterm.bounds import (
    STATUS_ATTAINED,
    STATUS_CONVERGED,
    STATUS_DIVERGENT,
    STATUS_LIMIT,
    STATUS_TRUNCATED,
    _tail_integral,
)

import _ref
from conftest import builtin_families, random_monotone_weights

LINEAR = PowLogWeights(1.0, 0.0)  # w_j = j


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
        assert [float(s) for s in t.sums_p] == [1, 2, 3, 4]
        assert [t.W(m) for m in (1, 2, 3, 4)] == [1, 2, 3, 4]

    def test_const_p_half(self):
        t = build_table(ConstantWeights(), 0.5, 4)
        assert [t.W(m) for m in (1, 2, 3, 4)] == pytest.approx([1, 4, 9, 16])

    def test_linear_p1(self):
        t = build_table(LINEAR, 1.0, 3)
        assert [float(s) for s in t.sums_p] == [1, 3, 6]
        assert t.W(3) == 6.0

    def test_strictly_increasing_and_floor(self):
        for name, w in builtin_families().items():
            for p in (0.5, 1.0, 2.0):
                t = build_table(w, p, 512)
                assert np.all(np.diff(t.sums_p) > 0), name
                m = np.arange(1, 513)
                W = np.array([t.W(int(k)) for k in m])
                assert np.all(W >= m ** (1.0 / p) * (1 - 1e-12)), name

    def test_tabulated_too_short(self):
        with pytest.raises(TableTruncationError) as exc:
            build_table(TabulatedWeights([1, 2, 3]), 1.0, 10)
        assert exc.value.available == 3

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
        for m in (1, 7, 32):
            ref = float(logsumexp(logs[:m])) / 8.0
            assert t.log_W(m) == pytest.approx(ref, rel=1e-12)
        assert t.inv_sq(32) == pytest.approx(math.exp(-2 * t.log_W(32)))

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
LONG_U = float(np.finfo(np.longdouble).eps) / 2
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
    """W_m, W_m**-2 and log W_m against 50 digits, m = 1..1500."""

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
        # S_m: the terms w**p carry p*w_err + C_F ulps, the long double
        # running sum m ulps of long double, the final rounding one ulp
        rel_S = p * w_err + (C_F + 1) * U + m * LONG_U
        # S**y with y = fl(-2/p) or fl(1/p): the rounding of y costs
        # |y ln S| ulps, on top of |y| rel_S and the pow call itself
        inv_sq_bound = (2 / p) * (rel_S + log_S * U) + C_F * U
        W_bound = (1 / p) * (rel_S + log_S * U) + C_F * U
        log_W_bound = rel_S / p + (C_F + 1) * U * np.abs(ref["log_W"])

        inv_sq = t.inv_sq_slice(1, REF_M)
        assert np.all(_ref.rel_errors(inv_sq, ref["inv_sq"]) <= inv_sq_bound)
        W = [t.W(int(k)) for k in m]
        assert np.all(_ref.rel_errors(W, ref["W"]) <= W_bound)
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
        W_bound = abs_L / p + U * L / p + C_F * U
        log_W_bound = abs_L / p + U * L / p

        inv_sq = t.inv_sq_slice(1, M)
        assert np.all(_ref.rel_errors(inv_sq, ref["inv_sq"]) <= inv_sq_bound)
        W = [t.W(int(k)) for k in m]
        assert np.all(_ref.rel_errors(W, ref["W"]) <= W_bound)
        log_W = t.log_W_slice(1, M)
        assert np.all(_ref.abs_errors(log_W, ref["log_W"]) <= log_W_bound)


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
        assert r.lower_sq == r.upper_sq == r.limit_estimate
        assert r.limit_estimate == pytest.approx(1.0, abs=1e-6)

    def test_const_p2_constant_envelope(self):
        # at n = 1 the upper envelope is identically 1
        r = class_bounds(ConstantWeights(), 2.0, 1, m_max=2048)
        assert r.status == STATUS_LIMIT
        assert r.limit_estimate == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("p", [2.5, 3.0])
    def test_const_supercritical_divergent(self, p):
        r = class_bounds(ConstantWeights(), p, 1, m_max=1024)
        assert r.status == STATUS_DIVERGENT
        assert math.isinf(r.upper_sq) and math.isinf(r.lower_sq)
        assert math.isfinite(r.scan_upper_sq)

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

    def test_tabulated_exhaustion_is_not_an_error(self):
        w = TabulatedWeights(np.arange(1.0, 41.0))
        r = class_bounds(w, 1.0, 1, m_max=4096)
        assert r.status == STATUS_TRUNCATED
        assert r.m_scanned == 40

    def test_tabulated_attained_when_confirmed(self):
        w = TabulatedWeights(np.arange(1.0, 2001.0))
        r = class_bounds(w, 1.0, 1, m_max=2000)
        assert r.status == STATUS_ATTAINED
        ref = class_bounds(LINEAR, 1.0, 1, m_max=2000)
        assert r.upper_sq == pytest.approx(ref.upper_sq, rel=1e-12)

    def test_tabulated_divergent_heuristic(self):
        w = TabulatedWeights(np.ones(4096))
        r = class_bounds(w, 3.0, 1, m_max=4096)
        assert r.status == STATUS_DIVERGENT

    def test_tabulated_limit_heuristic(self):
        w = TabulatedWeights(np.ones(8192))
        r = class_bounds(w, 2.0, 5, m_max=8192)
        assert r.status == STATUS_LIMIT
        assert r.limit_estimate == pytest.approx(1.0, abs=1e-6)

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

    def test_sum_past_float64_range_diverges(self):
        # W_m**p = m * e**699.9 leaves the float64 range near m = 19,500,
        # while the envelope (m - n + 1) / W_m**2 keeps growing like m**0.99
        w = TabulatedWeights(np.full(2 ** 16, 33.1))
        r = class_bounds(w, 200.0, 1024)
        assert r.m_scanned == 2 ** 16
        assert r.status == STATUS_DIVERGENT
        assert r.upper_sq == r.lower_sq == math.inf

    def test_reused_table(self):
        table = build_table(LINEAR, 1.0, 4096)
        a = class_bounds(LINEAR, 1.0, 3, m_max=4096, table=table)
        b = class_bounds(LINEAR, 1.0, 3, m_max=4096)
        assert a == b

    def test_witness_consistency(self):
        # every equal-entry witness stays below the reported lower envelope
        for w in (ConstantWeights(), LINEAR):
            n, m_max = 2, 256
            r = class_bounds(w, 1.0, n, m_max=m_max)
            table = build_table(w, 1.0, m_max)
            for m in range(n + 1, m_max + 1, 13):
                seq = extremal_sequence(w, 1.0, m)
                got = sigma_n_exact(seq, n) ** 2
                assert got == pytest.approx(
                    (m - n) * table.inv_sq(m), rel=1e-10)
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


class TestClassBoundsGrid:
    @pytest.mark.parametrize("p", [0.5, 1.0, 2.0])
    def test_matches_class_bounds_per_n(self, p):
        grid = dyadic_grid(1, 256)
        for w in (ConstantWeights(), LINEAR, LogPowerWeights(1.0)):
            assert class_bounds_grid(w, p, grid) == [
                class_bounds(w, p, n) for n in grid]
            assert class_bounds_grid(w, p, grid, 8192) == [
                class_bounds(w, p, n, m_max=8192) for n in grid]

    def test_clipped_to_tabulated_length(self):
        # default_m_max(2048) = 131072 is past the end of the weights
        w = TabulatedWeights(np.arange(1.0, 4097.0))
        grid = dyadic_grid(16, 2048)
        got = class_bounds_grid(w, 1.5, grid)
        assert [r.m_scanned for r in got] == [1024, 2048] + [4096] * 6
        assert got == [class_bounds(w, 1.5, n) for n in grid]

    def test_bad_m_max_is_named(self):
        with pytest.raises(ValueError, match="m_max must be >= n"):
            class_bounds_grid(ConstantWeights(), 1.0, [16, 64], 0)
        with pytest.raises(ValueError, match="m_max must be >= n"):
            class_bounds_grid(ConstantWeights(), 1.0, [16, 64], 40)

    def test_empty_grid(self):
        assert class_bounds_grid(ConstantWeights(), 1.0, []) == []


class TestSandwichWidth:
    def test_const_p1_n1(self):
        r = class_bounds(ConstantWeights(), 1.0, 1, m_max=1024)
        assert sandwich_width(r) == pytest.approx(0.75)
        assert sandwich_width(r) <= 1.0  # W_1**-2

    def test_limit_case_zero_width(self):
        r = class_bounds(ConstantWeights(), 2.0, 5, m_max=4096)
        assert sandwich_width(r) == 0.0

    def test_linear_weights_gap_below_first_inverse_square(self):
        r = class_bounds(LINEAR, 1.0, 1, m_max=1024)
        assert sandwich_width(r) <= 1.0

    def test_width_bound_holds_broadly(self):
        for name, w in builtin_families().items():
            for p in (0.5, 1.0):
                for n in (1, 4, 16):
                    r = class_bounds(w, p, n, m_max=4096)
                    table = build_table(w, p, max(n, 1))
                    assert sandwich_width(r) <= table.inv_sq(max(n, 1)) + 1e-15

    def test_divergent_is_an_error(self):
        r = class_bounds(ConstantWeights(), 3.0, 1, m_max=1024)
        with pytest.raises(ValueError):
            sandwich_width(r)


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
        r = class_error_infty(w, 4, tail_tol=1e-10)
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

    @pytest.mark.parametrize("exponent, status", [
        (0.0, STATUS_DIVERGENT),    # terms 1: trailing slope 0
        (0.5, STATUS_TRUNCATED),    # terms j**-1: slope -1, below -0.95
        (0.4, STATUS_DIVERGENT),    # terms j**-0.8: slope -0.8
    ])
    def test_tabulated_trailing_slope(self, exponent, status):
        j = np.arange(1, 4097, dtype=np.float64)
        r = class_error_infty(TabulatedWeights(j ** exponent), 0)
        assert r.status == status
        assert r.terms_summed == 4096

    def test_n_beyond_table(self):
        w = TabulatedWeights([1.0, 2.0])
        r = class_error_infty(w, 5)
        assert r.value_sq == 0.0 and r.status == STATUS_TRUNCATED

    def test_requested_tolerance_reached(self):
        r = class_error_infty(LINEAR, 3, tail_tol=1e-12)
        assert r.truncation_bound <= 1e-12

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
        assert r.status == STATUS_CONVERGED
        with mpmath.workdps(30):
            ref = mpmath.zeta(2 * mpmath.mpf(alpha), 11)
            gap = float(abs(mpmath.mpf(r.value_sq) - ref))
        assert gap <= r.truncation_bound

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("beta", [0.5000001, 0.505, 0.51, 0.6, 1.0])
    def test_boundary_tail_near_half_beta(self, beta):
        # 2 alpha = 1: the terms decay like 1/(j log2(j)**(2 beta)), and as
        # beta -> 1/2 almost all of the sum lies past the head (the integral
        # past 131072.5 is 3.47e6 at beta = 0.5000001)
        r = class_error_infty(PowLogWeights(0.5, beta), 16)
        assert r.status == STATUS_CONVERGED
        ref = _ref.powlog_tail_sq(0.5, beta, 16)
        with mpmath.workdps(_ref.DIGITS):
            gap = float(abs(mpmath.mpf(r.value_sq) - ref))
        assert gap <= r.truncation_bound
