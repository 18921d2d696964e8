import json
import math
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import nterm.bounds
from nterm import (
    ConstantWeights,
    LogPowerWeights,
    OracleConfig,
    PowLogWeights,
    TabulatedWeights,
    certify,
    class_bounds,
    dyadic_grid,
    random_search_oracle,
    sigma_n_exact,
    structure_oracle,
    weighted_lp_norm,
)
from nterm.bounds import (_BLOCK, STATUS_DIVERGENT, build_table, run_table,
                          scan_length)
from nterm.oracle import _BATCH, _unit_rows_in_logs
from nterm.sequences import sigma_sq_exact

import _ref
from conftest import builtin_families, random_monotone_weights

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
# random_search_oracle at seed 7 on grids whose samples span several blocks
# of rows and batches, recorded at commit 469c13d, in the format of
# RANDOM_PIN with one entry per grid
BLOCK_PIN = json.loads(
    (Path(__file__).resolve().parent / "data" / "random_oracle_blocks.json")
    .read_text())
BLOCK_PIN_WEIGHTS = {
    "powlog:alpha=1,beta=0": LINEAR,
    "const": ConstantWeights(),
    # at p = 2 a row's norm overflows once sum_j u_j**2 > 44.9, so most
    # winning rows are normed in logarithms, in blocks past the first
    "table129-level2e153": TabulatedWeights([2e153] * 129),
}


def exhaustive_grid_oracle(weight_vals, p, n, m_max, grid=10_000):
    """Independent maximizer: plain dense grid over (m, b), no refinement.

    Heads m in [n, m_max] with c at m + 1, so weight_vals holds w_1 up to
    w_{m_max + 1}; an infinite last weight allows no entry there.
    """
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
        # the scan ends at m_max: no entry past it
        ref = exhaustive_grid_oracle(
            np.append(w.values(m_max), np.inf), p, n, m_max, grid=4_000)
        assert value >= ref - 1e-9
        assert value <= ref + 1e-4

    def test_dominates_equal_entry_witness_of_length_m_max(self):
        # m_max equal entries are the last flat block of the scan
        w = LogPowerWeights(1.0)
        value, _ = structure_oracle(w, 1.0, 300, OracleConfig(m_max=500))
        table = build_table(w, 1.0, 500)
        block = np.full(500, math.sqrt(table.inv_sq_slice(500, 500)[0]))
        ref = sigma_n_exact(block, 300) ** 2
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

    @pytest.mark.parametrize("p", [0.5, 1.0, 2.0])
    def test_witness_is_the_best_flat_block(self, p):
        # at p <= 2 the witness is k copies of W_k**-1 at the best k
        for name, w in builtin_families().items():
            table, rows = run_table(w, p, [0, 1, 5], 256)
            for n, row in zip((0, 1, 5), rows):
                value, witness = structure_oracle(
                    w, p, n, OracleConfig(m_max=256), table=table,
                    m_scanned=row.m_scanned)
                k = witness.entries.size
                assert k > n, (name, n)
                block = np.full(k, math.sqrt(table.inv_sq_slice(k, k)[0]))
                assert np.array_equal(witness.entries, block), (name, n)
                blocks = (np.arange(1, 256 - n + 1)
                          * table.inv_sq_slice(n + 1, 256))
                assert value >= blocks.max() * (1 - 1e-12), (name, n)

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


class TestStructureOracleIsLowerEnvelope:
    """At p <= 2 the structure oracle is the best flat block, so it returns
    max (m-n) / W_m**2 over m in [max(n, 1), m_max], the bound scan."""

    FAMILIES = {
        **builtin_families(),
        "random": random_monotone_weights(np.random.default_rng(11), 3000),
    }

    @staticmethod
    def envelope(w, p, n, cfg):
        top = scan_length(w, n, cfg.m_max)
        W_sq = np.cumsum(w.values(top) ** p) ** (2.0 / p)
        m = np.arange(1, top + 1)
        lo = max(n, 1)
        return float(np.max((m[lo - 1:] - n) / W_sq[lo - 1:]))

    @pytest.mark.parametrize("name", list(FAMILIES))
    @pytest.mark.parametrize("p", [0.5, 1.0, 1.5, 2.0])
    @pytest.mark.parametrize("n", [0, 1, 4, 16, 64])
    def test_identity_at_p_le_2(self, name, p, n):
        w, cfg = self.FAMILIES[name], OracleConfig()
        value, _ = structure_oracle(w, p, n, cfg)
        assert value == pytest.approx(self.envelope(w, p, n, cfg), rel=1e-13)

    # const is left out: at p = 3 its envelope keeps rising to m_max
    @pytest.mark.parametrize("name", [k for k in FAMILIES if k != "const"])
    def test_concave_branch_exceeds_it_above_2(self, name):
        w, cfg = self.FAMILIES[name], OracleConfig()
        value, _ = structure_oracle(w, 3.0, 4, cfg)
        assert value > self.envelope(w, 3.0, 4, cfg) * (1 + 1e-6)


class TestTwoFamiliesAgainstReference:
    """The oracle is the best flat block, or at p > 2 the best Hoelder
    pair: checked against that maximum at 50 digits (``_ref``)."""

    FAMILIES = {
        **builtin_families(),
        "random": random_monotone_weights(np.random.default_rng(5), 600),
    }

    @pytest.mark.parametrize("name", list(FAMILIES))
    @pytest.mark.parametrize("p", [0.5, 1.0, 2.0, 2.5, 3.0, 4.0, 8.0])
    def test_matches_reference(self, name, p):
        w, cfg = self.FAMILIES[name], OracleConfig(m_max=512)
        n_values = (0, 3, 40)
        refs = _ref.structure_sq(w, p, n_values, cfg.m_max)
        for n, ref in zip(n_values, refs):
            value, witness = structure_oracle(w, p, n, cfg)
            assert _ref.rel_errors([value], [ref])[0] <= 1e-12, n
            assert weighted_lp_norm(witness, w, p) <= 1 + 1e-12, n
            # a block then at most one entry c <= b
            assert np.all(np.diff(witness.entries) <= 0), n

    @pytest.mark.parametrize("p", [0.5, 1.0, 2.0])
    def test_no_weights_read_at_p_le_2(self, weights_evaluated, p):
        cfg = OracleConfig()
        table, rows = run_table(LINEAR, p, [4, 64], cfg.m_max)
        weights_evaluated.clear()
        for n, row in zip((4, 64), rows):
            structure_oracle(LINEAR, p, n, cfg, table=table,
                             m_scanned=row.m_scanned)
        assert weights_evaluated == []

    def test_passed_table_is_used_as_given(self):
        cfg = OracleConfig(m_max=64)
        [row] = run_table(LINEAR, 3.0, [4], cfg.m_max)[1]
        with pytest.raises(ValueError, match="table is for p = 2.0, not 3"):
            structure_oracle(LINEAR, 3.0, 4, cfg,
                             table=build_table(LINEAR, 2.0, 64),
                             m_scanned=row.m_scanned)
        with pytest.raises(ValueError, match="table covers m in"):
            structure_oracle(LINEAR, 3.0, 4, cfg,
                             table=build_table(LINEAR, 3.0, 63),
                             m_scanned=row.m_scanned)

    def test_passed_table_needs_its_stop(self):
        # the stop is the bounds row's, never scanned again here
        cfg = OracleConfig(m_max=64)
        with pytest.raises(ValueError, match="needs its row's m_scanned"):
            structure_oracle(LINEAR, 3.0, 4, cfg,
                             table=build_table(LINEAR, 3.0, 64))

    def test_weights_read_once_per_call_above_2(self, weights_evaluated):
        cfg = OracleConfig()
        table, rows = run_table(LINEAR, 3.0, [4, 64], cfg.m_max)
        weights_evaluated.clear()
        for n, row in zip((4, 64), rows):
            structure_oracle(LINEAR, 3.0, n, cfg, table=table,
                             m_scanned=row.m_scanned)
        assert weights_evaluated == [1024, 64 * 64]


class TestRandomSearchOracle:
    def test_const_p1_n1_interval(self):
        cfg = OracleConfig(m_max=64, iters=100_000, seed=42)
        value, _ = random_search_oracle(ConstantWeights(), 1.0, [1], cfg)[0]
        assert 0.24 <= value <= 0.25

    def test_sigma0_on_l2_ball(self):
        cfg = OracleConfig(iters=20_000, seed=5)
        value, _ = random_search_oracle(ConstantWeights(), 2.0, [0], cfg)[0]
        assert value <= 1 + 1e-12

    def test_deterministic_replay(self):
        cfg = OracleConfig(iters=30_000, seed=99)
        a = random_search_oracle(LINEAR, 1.0, [2], cfg)[0]
        b = random_search_oracle(LINEAR, 1.0, [2], cfg)[0]
        assert a[0] == b[0]
        assert np.array_equal(a[1].entries, b[1].entries)

    def test_witness_soundness(self):
        for p in (0.5, 1.0, 2.0, math.inf):
            cfg = OracleConfig(iters=5_000, seed=11)
            w = LogPowerWeights(1.0)
            value, witness = random_search_oracle(w, p, [2], cfg)[0]
            assert weighted_lp_norm(witness, w, p) <= 1 + 1e-12
            assert value == sigma_sq_exact(witness, 2)

    def test_nonincreasing_witness(self):
        cfg = OracleConfig(iters=2_000, seed=3)
        _, witness = random_search_oracle(ConstantWeights(), 1.0, [1], cfg)[0]
        assert np.all(np.diff(witness.entries) <= 0)

    def test_p_inf_supported(self):
        cfg = OracleConfig(iters=5_000, seed=17)
        value, witness = random_search_oracle(LINEAR, math.inf, [1], cfg)[0]
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
                TabulatedWeights([level] * 40_000), 200.0, [16], cfg)[0]
            unit, _ = random_search_oracle(
                TabulatedWeights([1.0] * 40_000), 200.0, [16], cfg)[0]
        assert scaled == pytest.approx(unit / level ** 2, rel=1e-12)

    @pytest.mark.parametrize("w, p, n_values", [
        # (w_j x_j)**2 passes the float64 maximum on rows that reach 1e300
        (TabulatedWeights([1.0, 1e100, 1e200, 1e300]), 2.0, [0, 1, 2]),
        # sum_j x_j**p < 64 but its 1/p-th power overflows for p < 0.006
        (ConstantWeights(), 0.003, [0, 1, 2]),
        (ConstantWeights(), 0.003, [5]),
    ], ids=["steep-p2", "const-p0.003", "const-p0.003-n5"])
    def test_norm_past_the_float64_range(self, w, p, n_values):
        # the suite turns a RuntimeWarning into an error; the rows whose
        # norm overflows are unit vectors too, and no sample beats the
        # structure oracle
        cfg = OracleConfig(iters=2_000, seed=4)
        for n, (value, witness) in zip(
                n_values, random_search_oracle(w, p, n_values, cfg)):
            structure, _ = structure_oracle(w, p, n, cfg)
            assert 0.0 <= value <= structure + 1e-9, n
            assert weighted_lp_norm(witness, w, p) <= 1 + 1e-12, n

    @pytest.mark.parametrize("p", [0.5, 1.0, 2.0, 3.0, math.inf])
    def test_rows_normed_in_logs(self, p):
        # where the direct norm is finite, the logarithmic one agrees
        rng = np.random.default_rng(8)
        vals = np.sort(rng.random((50, 12)), axis=1)[:, ::-1].copy()
        vals[:, 7:] = 0.0
        wrow = 1.0 + np.cumsum(rng.random(12))
        t = vals * wrow
        norms = t.max(axis=1) if math.isinf(p) else (
            (t ** p).sum(axis=1) ** (1.0 / p))
        np.testing.assert_allclose(_unit_rows_in_logs(vals, wrow, p),
                                   vals / norms[:, None], rtol=1e-13)

    @pytest.mark.parametrize(
        "case", RANDOM_PIN,
        ids=[f"{c['weights']}-p{c['p']}-n{c['n']}" for c in RANDOM_PIN])
    def test_recorded_draws_bit_for_bit(self, case):
        # any change to the RNG stream or to the order of the arithmetic
        # moves some value or witness entry by at least one ulp
        w = RANDOM_PIN_WEIGHTS[case["weights"]]
        value, witness = random_search_oracle(
            w, float(case["p"]), [case["n"]], OracleConfig(seed=7))[0]
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
    def test_n_at_or_past_support_is_zero(self, weights_evaluated, w,
                                          max_support, n, p):
        # every sample lives on the first min(max_support, known_length)
        # indices, so its tail past n is empty and no weight is read
        cfg = OracleConfig(seed=7, max_support=max_support)
        [(value, witness)] = random_search_oracle(w, p, [n], cfg)
        assert value == 0.0
        assert witness.entries.size == 0
        assert weights_evaluated == []


class TestBlockedDraws:
    """Each batch is drawn and reduced a block of max(1, _BLOCK // support)
    rows at a time, with the bits of one whole-batch draw."""

    @pytest.mark.parametrize("support, batch", [
        (1, 70_000), (64, 3_000), (129, 1_000), (200, 700), (2 ** 16 + 1, 3)])
    def test_blocks_read_the_stream_of_one_draw(self, support, batch):
        whole_rng = np.random.default_rng(5)
        whole = whole_rng.random((batch, support))
        rng = np.random.default_rng(5)
        rows = max(1, _BLOCK // support)
        blocks = [rng.random((min(rows, batch - start), support))
                  for start in range(0, batch, rows)]
        assert np.array_equal(np.concatenate(blocks), whole)
        assert rng.bit_generator.state == whole_rng.bit_generator.state

    @pytest.mark.parametrize(
        "case", BLOCK_PIN,
        ids=[f"{c['weights']}-p{c['p']}-{c['iters']}x{c['max_support']}"
             for c in BLOCK_PIN])
    def test_recorded_grids_bit_for_bit(self, case):
        # supports 129 and 200 do not divide _BLOCK, 70,000 draws cross two
        # batch boundaries, and table129-level2e153 has winners normed in
        # logarithms in blocks past the first
        cfg = OracleConfig(seed=7, iters=case["iters"],
                           max_support=case["max_support"])
        grid = [row["n"] for row in case["rows"]]
        results = random_search_oracle(
            BLOCK_PIN_WEIGHTS[case["weights"]], float(case["p"]), grid, cfg)
        for row, (value, witness) in zip(case["rows"], results):
            assert value == float.fromhex(row["value_sq"]), row["n"]
            assert np.array_equal(
                witness.entries,
                np.array([float.fromhex(x) for x in row["witness"]])), row["n"]

    @pytest.mark.parametrize("support", [64, 200])
    @pytest.mark.parametrize("iters", [20_000, 70_000])
    def test_peak_memory_of_random_oracle(self, iters, support):
        # held at once: at most six blocks of _BLOCK float64 values (the
        # draw, its weighted copy and their squares, the unit rows and
        # theirs), and the batch's k, rng.random(batch) and use_exp
        # arrays, 8 + 8 + 1 B per row of _BATCH; nothing grows with iters
        bound = 6 * 8 * _BLOCK + 17 * _BATCH
        cfg = OracleConfig(seed=1, iters=iters, max_support=support)
        tracemalloc.start()
        try:
            random_search_oracle(LINEAR, 2.0, [1, 16], cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound


class TestOneDrawPerGrid:
    """One sample set serves the whole grid: each n's result is that of a
    one-n grid, bit for bit, in value and witness."""

    @pytest.mark.parametrize("p", [0.5, 1.0, 2.0, 3.0, math.inf])
    @pytest.mark.parametrize("w, grid, iters", [
        # unsorted, duplicates, n = 0, n >= support mid-grid, 3 batches
        (LINEAR, [16, 3, 70, 0, 16, 64, 63, 5], 70_000),
        (TabulatedWeights([1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0]),
         [6, 0, 9, 2, 7, 2], 5_000),
    ], ids=["linear", "table7"])
    def test_grid_equals_one_n_grids(self, w, grid, iters, p):
        cfg = OracleConfig(iters=iters, seed=13)
        results = random_search_oracle(w, p, grid, cfg)
        assert len(results) == len(grid)
        for n, (value, witness) in zip(grid, results):
            [(ref_value, ref_witness)] = random_search_oracle(w, p, [n], cfg)
            assert value.hex() == ref_value.hex(), n
            assert np.array_equal(witness.entries, ref_witness.entries), n

    def test_certify_reads_the_sample_weights_once(self, weights_evaluated):
        certify(LINEAR, 2.0, [16, 32], OracleConfig(iters=2_000, seed=4))
        assert weights_evaluated.count(64) == 1

    def test_bad_m_max_rejected_before_any_draw(self, weights_evaluated):
        # the first n in grid order whose scan is too short is named
        with pytest.raises(ValueError, match="got 6 < 9"):
            certify(LINEAR, 2.0, [4, 8, 16], OracleConfig(m_max=6))
        assert weights_evaluated == []

    def test_negative_n_rejected_before_any_draw(self, weights_evaluated):
        with pytest.raises(ValueError, match="n must be >= 0, got -1"):
            random_search_oracle(LINEAR, 2.0, [4, -1], OracleConfig())
        assert weights_evaluated == []

    def test_empty_grid(self, weights_evaluated):
        assert random_search_oracle(LINEAR, 2.0, [], OracleConfig()) == []
        assert weights_evaluated == []


class TestCertify:
    @pytest.mark.parametrize("n", [1, 2, 4, 8])
    def test_const_p1(self, n):
        [rep] = certify(ConstantWeights(), 1.0, [n],
                        OracleConfig(iters=10_000, seed=1))
        assert rep.passed, rep.as_dict()

    @pytest.mark.parametrize("n", [1, 3, 9, 32])
    def test_powlog_p2(self, n):
        [rep] = certify(PowLogWeights(1.0, 0.0), 2.0, [n],
                        OracleConfig(iters=10_000, seed=2))
        assert rep.passed, rep.as_dict()

    def test_one_table_per_grid(self, table_sizes):
        grid = dyadic_grid(16, 1024)
        cfg = OracleConfig(iters=200, seed=4)
        per_n = [certify(LINEAR, 2.0, [n], cfg)[0] for n in grid]
        table_sizes.clear()
        assert certify(LINEAR, 2.0, grid, cfg) == per_n
        # one table, 2 (n_max + 256) long, holds the proof of every n
        assert table_sizes == [2 * (1024 + 256)]

    @pytest.mark.parametrize("w, p, grid", [
        (LINEAR, 2.0, dyadic_grid(16, 1024)),
        # above 2 the trailing window is read from the same walk
        (PowLogWeights(0.5, -1.0), 3.0, dyadic_grid(16, 512)),
        # a p = 2 plateau row whose cap stops short of the plateau, so the
        # trailing window decides
        (PowLogWeights(-0.01, 0.5), 2.0, [16, 64]),
    ], ids=["linear-2", "powlog-3", "plateau-short-2"])
    def test_each_n_scanned_once(self, monkeypatch, w, p, grid):
        # the structure oracle ends where the bounds row stopped and reads
        # that stop from the row, not from a scan of its own
        scanned = []
        real = nterm.bounds._scan

        def counting(table, n, *args):
            scanned.append(n)
            return real(table, n, *args)

        monkeypatch.setattr(nterm.bounds, "_scan", counting)
        certify(w, p, grid, OracleConfig(iters=200))
        assert scanned == grid

    def test_empty_grid(self):
        assert certify(LINEAR, 2.0, []) == []

    def test_divergent_consistency_mode(self):
        [rep] = certify(ConstantWeights(), 3.0, [1],
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
                [rep] = certify(w, p, [4], OracleConfig(iters=2_000, seed=8))
                assert rep.structure_sq >= rep.scan_lower_sq - 1e-9, name
                assert rep.structure_sq <= rep.scan_upper_sq + 1e-9, name

    def test_report_is_stable(self):
        a = certify(LINEAR, 1.0, [4, 8], OracleConfig(iters=5_000, seed=21))
        b = certify(LINEAR, 1.0, [4, 8], OracleConfig(iters=5_000, seed=21))
        assert a == b

    @pytest.mark.parametrize("w, p", [
        (ConstantWeights(), 2.0),    # the envelope rises to the scan's end
        (ConstantWeights(), 1.0),
        (LINEAR, 0.5),
        (TabulatedWeights(np.arange(1.0, 101.0)), 1.5),
    ], ids=["const-2", "const-1", "linear-0.5", "file100-1.5"])
    def test_structure_is_the_scanned_lower_envelope(self, w, p):
        # at p <= 2 the best flat block is the lower envelope, and both
        # scan the same range
        grid = [0, 1, 4, 16, 64, 99]
        for rep in certify(w, p, grid, OracleConfig(iters=200, seed=2)):
            assert rep.structure_sq == pytest.approx(
                rep.scan_lower_sq, rel=1e-13), rep.n

    def test_past_the_end_of_a_file(self):
        # a file of 100 weights: n = 98 leaves one Hoelder pair, n = 99 a
        # flat block and no pair, n >= 100 nothing
        w = TabulatedWeights(np.arange(1.0, 101.0))
        cfg = OracleConfig()
        for n in (98, 99):
            value, witness = structure_oracle(w, 3.0, n, cfg)
            assert value > 0 and witness.entries.size in (n + 1, n + 2)
        for n in (100, 128):
            value, witness = structure_oracle(w, 3.0, n, cfg)
            assert value == 0.0 and witness.entries.size == 0

    def test_bounds_agree_with_class_bounds(self):
        cfg = OracleConfig(iters=1_000, seed=0)
        [rep] = certify(LINEAR, 1.0, [4], cfg)
        ref = class_bounds(LINEAR, 1.0, 4, m_max=rep.m_max)
        assert rep.lower_sq == ref.lower_sq
        assert rep.upper_sq == ref.upper_sq
        assert rep.bound_status == ref.status


class TestOracleConfig:
    def test_invariants(self):
        with pytest.raises(ValueError):
            OracleConfig(iters=0)
