import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from nterm import (
    ConstantWeights,
    LogPowerWeights,
    OracleConfig,
    PowLogWeights,
    TabulatedWeights,
    certify,
    class_bounds,
    extremal_sequence,
    random_search_oracle,
    sigma_n_exact,
    structure_oracle,
    weighted_lp_norm,
)
from nterm.bounds import STATUS_DIVERGENT
from nterm.sequences import sigma_sq_exact

from conftest import builtin_families

LINEAR = PowLogWeights(1.0, 0.0)

# random_search_oracle at OracleConfig(seed=7), recorded at commit 4165cee;
# value_sq and every witness entry are float.hex strings
RANDOM_PIN = json.loads(
    (Path(__file__).resolve().parent / "data" / "random_oracle_seed7.json")
    .read_text())
RANDOM_PIN_WEIGHTS = {
    "powlog:alpha=1,beta=0": LINEAR,
    "table17": TabulatedWeights([1.0 + 0.25 * j for j in range(17)]),
}


def exhaustive_grid_oracle(weight_vals, p, n, m_max, grid=10_000):
    """Independent maximizer: plain dense grid over (m, b), no refinement."""
    best = 0.0
    W_p = 0.0
    for m in range(1, m_max + 1):
        W_p += weight_vals[m - 1] ** p
        if m < n:
            continue
        w_next = weight_vals[m]
        b_hi = W_p ** (-1.0 / p)
        for i in range(grid + 1):
            b = b_hi * i / grid
            slack = 1.0 - (b ** p) * W_p
            if slack < 0:
                continue
            c = min(b, (slack / w_next ** p) ** (1.0 / p))
            best = max(best, (m - n) * b * b + c * c)
    return best


class TestStructureOracle:
    def test_const_p1_n1_value_and_witness(self):
        cfg = OracleConfig(m_max=32, seed=0)
        value, witness = structure_oracle(ConstantWeights(), 1.0, 1, cfg)
        assert value == pytest.approx(0.25, abs=1e-9)
        assert np.allclose(witness.entries, [0.5, 0.5], atol=1e-6)

    def test_const_p1_n1_against_dense_grid(self):
        cfg = OracleConfig(m_max=32, seed=0)
        value, _ = structure_oracle(ConstantWeights(), 1.0, 1, cfg)
        ref = exhaustive_grid_oracle(np.ones(33), 1.0, 1, 32, grid=10_000)
        assert value >= ref - 1e-6
        assert value == pytest.approx(ref, abs=1e-6)

    @pytest.mark.parametrize("p", [0.5, 1.5, 2.0, 3.0, 5.0])
    def test_nonstandard_p_against_dense_grid(self, p):
        cfg = OracleConfig(m_max=24, seed=0)
        value, _ = structure_oracle(LINEAR, p, 2, cfg)
        ref = exhaustive_grid_oracle(
            np.arange(1.0, 26.0), p, 2, 24, grid=4_000)
        # every reference grid point is feasible, so the exact oracle must
        # dominate it; it may exceed the reference by its resolution error
        assert value >= ref - 1e-9
        assert value <= ref + 1e-4

    @pytest.mark.parametrize("w, p, n, m_max", [
        # m_max = n + 1: the m = n head has no free entries (c = 0)
        (LINEAR, 0.5, 3, 4),
        (LINEAR, 2.0, 3, 4),
        (LINEAR, 5.0, 3, 4),
        (ConstantWeights(), 3.0, 0, 1),
        (TabulatedWeights([1.0, 1.5, 1.5, 4.0, 9.0, 9.5, 30.0, 31.0]),
         1.0, 2, 7),
        (TabulatedWeights([1.0, 1.5, 1.5, 4.0, 9.0, 9.5, 30.0, 31.0]),
         4.0, 2, 7),
    ])
    def test_edge_cases_against_dense_grid(self, w, p, n, m_max):
        value, _ = structure_oracle(w, p, n, OracleConfig(m_max=m_max))
        ref = exhaustive_grid_oracle(
            w.values(m_max + 1), p, n, m_max, grid=4_000)
        assert value >= ref - 1e-9
        assert value <= ref + 1e-4

    def test_dominates_equal_entry_witness_of_length_m_max_plus_one(self):
        # m_max + 1 equal entries are the m = m_max head with c = b; here
        # that kink lies between the last two points of a 512-point grid
        w = LogPowerWeights(1.0)
        value, _ = structure_oracle(w, 1.0, 300, OracleConfig(m_max=500))
        ref = sigma_n_exact(extremal_sequence(w, 1.0, 501), 300) ** 2
        assert value >= ref * (1 - 1e-12)

    def test_log_domain_table_raises_no_float_error(self):
        # p * log w_m exceeds the log-domain threshold, so the table holds
        # log prefix sums; no overflow, underflow or NaN may occur
        w = PowLogWeights(12.0, 0.0)
        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            value, witness = structure_oracle(w, 5.0, 2048, OracleConfig())
        assert value >= 2.6030324681078303e-79 * (1 - 1e-12)
        assert value <= 2.6030324681078303e-79 * (1 + 1e-9)
        assert weighted_lp_norm(witness, w, 5.0) <= 1 + 1e-12

    def test_const_p2_approaches_one_from_below(self):
        cfg = OracleConfig(m_max=10_000, seed=0)
        value, _ = structure_oracle(ConstantWeights(), 2.0, 1, cfg)
        assert 0.99 < value < 1.0

    def test_single_spike_degenerate(self):
        # n = 0, m_max = 1 with steep weights: the best move is one entry
        # at the first coordinate scaled to the sphere
        w = TabulatedWeights([2.0, 100.0])
        cfg = OracleConfig(m_max=1, seed=0)
        value, witness = structure_oracle(w, 1.0, 0, cfg)
        assert value == pytest.approx(0.25, rel=1e-9)
        assert witness.entries[0] == pytest.approx(0.5, rel=1e-6)

    def test_witness_validity(self):
        for name, w in builtin_families().items():
            for p in (0.5, 1.0, 2.0):
                for n in (0, 1, 5):
                    cfg = OracleConfig(m_max=256, seed=0)
                    value, witness = structure_oracle(w, p, n, cfg)
                    norm = weighted_lp_norm(witness, w, p)
                    assert norm <= 1 + 1e-12, (name, p, n)
                    assert value == pytest.approx(
                        sigma_n_exact(witness, n) ** 2, rel=1e-10)

    def test_value_is_the_exact_tail_sum(self):
        # squaring the rounded root sigma_n_exact gives 0.12500000000000003
        value, witness = structure_oracle(ConstantWeights(), 1.0, 2,
                                          OracleConfig(m_max=200))
        assert value == 0.125
        assert value == sigma_sq_exact(witness, 2)

    def test_determinism(self):
        cfg = OracleConfig(m_max=512, seed=123)
        a = structure_oracle(LINEAR, 1.5, 3, cfg)
        b = structure_oracle(LINEAR, 1.5, 3, cfg)
        assert a[0] == b[0]
        assert np.array_equal(a[1].entries, b[1].entries)

    def test_m_max_below_n_plus_one_rejected(self):
        with pytest.raises(ValueError):
            structure_oracle(ConstantWeights(), 1.0, 5,
                             OracleConfig(m_max=5))

    def test_p_inf_rejected(self):
        with pytest.raises(ValueError):
            structure_oracle(ConstantWeights(), math.inf, 1,
                             OracleConfig(m_max=8))


class TestRandomSearchOracle:
    def test_const_p1_n1_interval(self):
        cfg = OracleConfig(m_max=64, iters=100_000, seed=42)
        value, _ = random_search_oracle(ConstantWeights(), 1.0, 1, cfg)
        assert 0.24 <= value <= 0.25

    def test_sigma0_on_l2_ball(self):
        cfg = OracleConfig(iters=20_000, seed=5)
        value, _ = random_search_oracle(ConstantWeights(), 2.0, 0, cfg)
        assert value <= 1 + 1e-12

    def test_deterministic_replay(self):
        cfg = OracleConfig(iters=30_000, seed=99)
        a = random_search_oracle(LINEAR, 1.0, 2, cfg)
        b = random_search_oracle(LINEAR, 1.0, 2, cfg)
        assert a[0] == b[0]
        assert np.array_equal(a[1].entries, b[1].entries)

    def test_witness_soundness(self):
        for p in (0.5, 1.0, 2.0, math.inf):
            cfg = OracleConfig(iters=5_000, seed=11)
            w = LogPowerWeights(1.0)
            value, witness = random_search_oracle(w, p, 2, cfg)
            assert weighted_lp_norm(witness, w, p) <= 1 + 1e-12
            assert value == sigma_sq_exact(witness, 2)

    def test_nonincreasing_witness(self):
        cfg = OracleConfig(iters=2_000, seed=3)
        _, witness = random_search_oracle(ConstantWeights(), 1.0, 1, cfg)
        assert np.all(np.diff(witness.entries) <= 0)

    def test_p_inf_supported(self):
        cfg = OracleConfig(iters=5_000, seed=17)
        value, witness = random_search_oracle(LINEAR, math.inf, 1, cfg)
        assert value > 0
        assert weighted_lp_norm(witness, LINEAR, math.inf) <= 1 + 1e-12

    @pytest.mark.parametrize("level", [33.1, 1e3])
    def test_constant_weight_level_factors_out(self, level):
        # at p = 200, (w_j x_j)**p overflows float64 for w_j = 33.1 unless
        # each row is scaled by its maximum first; the value must scale as
        # level**-2, draw for draw
        cfg = OracleConfig(iters=500, seed=23)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            scaled, _ = random_search_oracle(
                TabulatedWeights([level] * 40_000), 200.0, 16, cfg)
            unit, _ = random_search_oracle(
                TabulatedWeights([1.0] * 40_000), 200.0, 16, cfg)
        assert scaled == pytest.approx(unit / level ** 2, rel=1e-12)

    @pytest.mark.parametrize(
        "case", RANDOM_PIN,
        ids=[f"{c['weights']}-p{c['p']}-n{c['n']}" for c in RANDOM_PIN])
    def test_recorded_draws_bit_for_bit(self, case):
        # any change to the RNG stream or to the order of the arithmetic
        # moves some value or witness entry by at least one ulp
        w = RANDOM_PIN_WEIGHTS[case["weights"]]
        value, witness = random_search_oracle(
            w, float(case["p"]), case["n"], OracleConfig(seed=7))
        assert value == float.fromhex(case["value_sq"])
        assert np.array_equal(
            witness.entries,
            np.array([float.fromhex(x) for x in case["witness"]]))

    @pytest.mark.parametrize("p", [0.5, 1.0, 2.0, 3.0, math.inf])
    @pytest.mark.parametrize("w, max_support, n", [
        (LINEAR, 64, 64),
        (LINEAR, 64, 65),
        (LINEAR, 17, 17),
        (TabulatedWeights([1.0, 1.5, 2.0, 2.5, 3.0]), 64, 5),
        (TabulatedWeights([1.0, 1.5, 2.0, 2.5, 3.0]), 64, 9),
    ], ids=["linear-64-n64", "linear-64-n65", "linear-17-n17",
            "table5-n5", "table5-n9"])
    def test_n_at_or_past_support_is_zero(self, w, max_support, n, p):
        # every sample lives on the first min(max_support, known_length)
        # indices, so its tail past n is empty
        cfg = OracleConfig(seed=7, max_support=max_support)
        value, witness = random_search_oracle(w, p, n, cfg)
        assert value == 0.0
        assert witness.entries.size == 0


class TestCertify:
    @pytest.mark.parametrize("n", [1, 2, 4, 8])
    def test_const_p1(self, n):
        rep = certify(ConstantWeights(), 1.0, n,
                      OracleConfig(iters=10_000, seed=1))
        assert rep.passed, rep.as_dict()

    @pytest.mark.parametrize("n", [1, 3, 9, 32])
    def test_powlog_p2(self, n):
        rep = certify(PowLogWeights(1.0, 0.0), 2.0, n,
                      OracleConfig(iters=10_000, seed=2))
        assert rep.passed, rep.as_dict()

    def test_divergent_consistency_mode(self):
        rep = certify(ConstantWeights(), 3.0, 1,
                      OracleConfig(iters=5_000, seed=3))
        assert rep.bound_status == STATUS_DIVERGENT
        assert math.isinf(rep.upper_sq)
        assert rep.passed

    def test_oracle_grows_with_m_max_when_divergent(self):
        small = structure_oracle(ConstantWeights(), 3.0, 1,
                                 OracleConfig(m_max=256, seed=0))[0]
        large = structure_oracle(ConstantWeights(), 3.0, 1,
                                 OracleConfig(m_max=4096, seed=0))[0]
        assert large > small

    def test_domination_within_scanned_window(self):
        # the structured optimum is pinched between the scanned envelopes
        for name, w in builtin_families().items():
            for p in (0.5, 1.0, 1.5, 2.0):
                rep = certify(w, p, 4, OracleConfig(iters=2_000, seed=8))
                assert rep.structure_sq >= rep.scan_lower_sq - 1e-9, name
                assert rep.structure_sq <= rep.scan_upper_sq + 1e-9, name

    def test_report_is_stable(self):
        a = certify(LINEAR, 1.0, 4, OracleConfig(iters=5_000, seed=21))
        b = certify(LINEAR, 1.0, 4, OracleConfig(iters=5_000, seed=21))
        assert a == b

    def test_bounds_agree_with_class_bounds(self):
        cfg = OracleConfig(iters=1_000, seed=0)
        rep = certify(LINEAR, 1.0, 4, cfg)
        ref = class_bounds(LINEAR, 1.0, 4, m_max=rep.m_max)
        assert rep.lower_sq == ref.lower_sq
        assert rep.upper_sq == ref.upper_sq
        assert rep.bound_status == ref.status


class TestOracleConfig:
    def test_invariants(self):
        with pytest.raises(ValueError):
            OracleConfig(iters=0)
