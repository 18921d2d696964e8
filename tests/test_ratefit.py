import math

import numpy as np
import pytest

from nterm import (
    ConstantWeights,
    LogPowerWeights,
    PowLogWeights,
    TabulatedWeights,
    class_bounds,
    class_error_infty,
    class_error_samples,
    dyadic_grid,
    fit_rate,
    predicted_rate,
    ratio_envelope,
)


def power_law_samples(r, s=0.0, lo=64, hi=65536, scale=1.0):
    return [(n, scale * n ** -r * math.log(n + 1.0) ** -s)
            for n in dyadic_grid(lo, hi)]


class TestFitRate:
    def test_exact_power_law(self):
        fit = fit_rate(power_law_samples(0.5), fixed_log_exponent=0.0)
        assert fit.poly_exponent == pytest.approx(0.5, abs=1e-10)
        assert fit.residual_rms < 1e-12
        joint = fit_rate(power_law_samples(0.5))
        assert joint.poly_exponent == pytest.approx(0.5, abs=1e-8)
        assert abs(joint.log_exponent) < 1e-6

    def test_exact_poly_log_model(self):
        fit = fit_rate(power_law_samples(1.0, s=1.0))
        assert fit.poly_exponent == pytest.approx(1.0, abs=1e-8)
        assert fit.log_exponent == pytest.approx(1.0, abs=1e-8)

    def test_fixed_log_exponent(self):
        fit = fit_rate(power_law_samples(1.0, s=1.0), fixed_log_exponent=1.0)
        assert fit.log_exponent == 1.0
        assert fit.poly_exponent == pytest.approx(1.0, abs=1e-10)

    def test_log_term_never_hurts_residual(self):
        rng = np.random.default_rng(4)
        samples = [(n, v * math.exp(0.05 * rng.standard_normal()))
                   for n, v in power_law_samples(0.7)]
        only = fit_rate(samples, fixed_log_exponent=0.0)
        joint = fit_rate(samples)
        assert joint.residual_rms <= only.residual_rms + 1e-15

    def test_intercept_recovered(self):
        fit = fit_rate(power_law_samples(0.5, scale=3.0),
                       fixed_log_exponent=0.0)
        assert fit.intercept == pytest.approx(math.log(3.0), abs=1e-10)

    def test_nonpositive_sigma_rejected(self):
        samples = power_law_samples(0.5)
        samples[3] = (samples[3][0], 0.0)
        with pytest.raises(ValueError):
            fit_rate(samples, fixed_log_exponent=0.0)

    def test_short_grid_rejected(self):
        with pytest.raises(ValueError):
            fit_rate(power_law_samples(0.5, hi=2 ** 12),
                     fixed_log_exponent=0.0)

    def test_non_increasing_grid_rejected(self):
        samples = power_law_samples(0.5)
        samples[1] = (samples[0][0], samples[1][1])
        with pytest.raises(ValueError):
            fit_rate(samples, fixed_log_exponent=0.0)


class TestRatioEnvelope:
    def test_exact_law_collapses(self):
        pred = predicted_rate(ConstantWeights(), 1.0)  # r = 1/2
        c_min, c_max = ratio_envelope(power_law_samples(0.5), pred)
        assert c_min == pytest.approx(c_max, rel=1e-12)

    def test_invalid_prediction_rejected(self):
        pred = predicted_rate(ConstantWeights(), 2.0)
        with pytest.raises(ValueError):
            ratio_envelope(power_law_samples(0.0), pred)


class TestClassErrorSamples:
    def test_matches_bounds_engine(self):
        grid = dyadic_grid(8, 64)
        samples = class_error_samples(ConstantWeights(), 1.0, grid)
        for n, sigma in samples:
            r = class_bounds(ConstantWeights(), 1.0, n)
            assert sigma == pytest.approx(math.sqrt(r.upper_sq), rel=1e-15)

    def test_inf_branch_matches_tail_sums(self):
        grid = dyadic_grid(4, 32)
        samples = class_error_samples(PowLogWeights(1.0, 0.0), math.inf, grid)
        for n, sigma in samples:
            r = class_error_infty(PowLogWeights(1.0, 0.0), n)
            assert sigma == pytest.approx(math.sqrt(r.value_sq), rel=1e-15)

    def test_tabulated_shorter_than_default_scan(self):
        # default_m_max(2048) = 131072 is past the end of the weights
        w = TabulatedWeights(np.arange(1.0, 4097.0))
        grid = dyadic_grid(16, 2048)
        samples = class_error_samples(w, 1.5, grid)
        for n, sigma in samples:
            r = class_bounds(w, 1.5, n)
            assert sigma == math.sqrt(r.upper_sq)

    def test_divergent_rejected(self):
        with pytest.raises(ValueError):
            class_error_samples(ConstantWeights(), 3.0, dyadic_grid(1, 8))


class TestDyadicGrid:
    def test_values(self):
        assert dyadic_grid(16, 4096) == [16, 32, 64, 128, 256, 512, 1024,
                                         2048, 4096]
        assert dyadic_grid(3, 13) == [3, 6, 12]

    def test_errors(self):
        with pytest.raises(ValueError):
            dyadic_grid(0, 8)
        with pytest.raises(ValueError):
            dyadic_grid(8, 4)


FIT_CASES = [
    # family, p, expected poly exponent (fit with s pinned to beta)
    (ConstantWeights(), 0.5, 1.5),
    (ConstantWeights(), 1.0, 0.5),
    (ConstantWeights(), 1.5, 1 / 1.5 - 0.5),
    (LogPowerWeights(0.5), 0.5, 1.5),
    (LogPowerWeights(0.5), 1.0, 0.5),
    (LogPowerWeights(1.0), 0.5, 1.5),
    (LogPowerWeights(1.0), 1.0, 0.5),
    (PowLogWeights(1.0, 0.0), 2.0, 1.0),
    (PowLogWeights(0.5, 1.0), 1.0, 1.0),
    (PowLogWeights(1.0, -1.0), math.inf, 0.5),
]


@pytest.mark.parametrize("w,p,expected", FIT_CASES,
                         ids=[f"{w.spec_string()}|p={p}" for w, p, _ in FIT_CASES])
def test_fitted_exponent_tracks_prediction(w, p, expected):
    pred = predicted_rate(w, p)
    assert pred.valid
    assert pred.poly_exponent == pytest.approx(expected, rel=1e-12)
    samples = class_error_samples(w, p, dyadic_grid(64, 65536))
    fit = fit_rate(samples, fixed_log_exponent=pred.log_exponent)
    assert fit.poly_exponent == pytest.approx(pred.poly_exponent, abs=0.05)
