"""Best n-term approximation errors for weighted lp sequence balls.

Exact errors for concrete sequences, two-sided worst-case bounds over unit
balls of weighted lp spaces, brute-force certification oracles, and decay
rate fitting.  See ``nterm.cli`` for the command-line interface.
"""

from .bounds import (
    BoundResult,
    CumulativeWeightTable,
    InftyTailResult,
    build_table,
    class_bounds,
    class_bounds_grid,
    class_error_infty,
)
from .oracle import (
    CertificationReport,
    OracleConfig,
    certify,
    random_search_oracle,
    structure_oracle,
)
from .ratefit import (
    RateFit,
    class_error_samples,
    dyadic_grid,
    fit_rate,
    ratio_envelope,
)
from .sequences import (
    CoefficientSequence,
    as_sequence,
    extremal_sequence,
    sigma_n_exact,
    weighted_lp_norm,
)
from .weights import (
    ConstantWeights,
    LogPowerWeights,
    PowLogWeights,
    RatePrediction,
    TabulatedWeights,
    UnsupportedFamilyError,
    WeightModel,
    WeightSpecError,
    WeightValidationError,
    parse_weight_spec,
    predicted_rate,
)

__version__ = "0.1.0"
