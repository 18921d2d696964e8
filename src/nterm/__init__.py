"""Best n-term approximation errors for weighted lp sequence balls.

Exact errors for concrete sequences, two-sided worst-case bounds over unit
balls of weighted lp spaces, brute-force certification oracles, and decay
rate fitting.  See ``nterm.cli`` for the command-line interface.

The names below load on first use, each from its module in ``_EXPORTS``,
so importing the package loads no numpy and sets no process state.
"""

import importlib

# exported name -> the submodule that defines it
_EXPORTS = {
    **dict.fromkeys(("BoundResult", "CumulativeWeightTable", "InftyTailResult",
                     "build_table", "class_bounds", "class_error_infty",
                     "run_table"), "bounds"),
    **dict.fromkeys(("CertificationReport", "OracleConfig", "certify",
                     "random_search_oracle", "structure_oracle"), "oracle"),
    **dict.fromkeys(("RateFit", "class_error_samples", "dyadic_grid",
                     "fit_rate", "ratio_envelope"), "ratefit"),
    **dict.fromkeys(("CoefficientSequence", "as_sequence", "sigma_n_exact",
                     "weighted_lp_norm"), "sequences"),
    **dict.fromkeys(("ConstantWeights", "LogPowerWeights", "PowLogWeights",
                     "RatePrediction", "TabulatedWeights",
                     "UnsupportedFamilyError", "WeightModel",
                     "WeightSpecError", "WeightValidationError",
                     "parse_weight_spec", "predicted_rate"), "weights"),
}

__all__ = list(_EXPORTS)
__version__ = "0.1.0"


def __getattr__(name: str):
    # not cached here: a module's own binding is the one value, so a
    # function patched in place there is what every later lookup returns
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__),
                   name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
