"""Spectral estimation of extreme columns and log peak-to-trough ratios of
column-permuted, approximately rank-one monotone matrices, with baselines,
minimax-rate calculators, and a reproducible Monte Carlo harness."""

from .errors import (
    AmbiguousDirection,
    DegenerateVariance,
    DimensionMismatch,
    DuplicateSampleId,
    GramOverflow,
    InputError,
    InsufficientColumns,
    InvalidScenario,
    LengthMismatch,
    NonFiniteEstimate,
    NonFiniteInput,
    NumericalDegeneracyError,
    ParseError,
    PermrowError,
    ZeroMatrixError,
)
from .estimators import (
    EstimatorMethod,
    ExtremeEstimates,
    direct_sorting_extremes,
    irep_extremes,
    order_statistic_extremes,
    spectral_extremes,
)
from .io import CoverageTable, load_coverage_csv, write_estimates_csv
from .matrix import (
    CenteredMatrix,
    SingularTriple,
    center_rows,
    leading_singular_triple,
    rank_vector,
    residual_spectrum,
)
from .simulation import (
    LinearGrowthSignal,
    PermutationKind,
    RiskReport,
    RiskSummary,
    ScenarioKind,
    ScenarioSpec,
    empirical_risk,
    generate_s1,
    generate_s2,
    rng_stream,
    run_monte_carlo,
    synthesize_observation,
    trial_seed,
)
from .stats import (
    FTestResult,
    TTestResult,
    TTestVariant,
    f_test_oneway,
    t_test_two_sample,
)
from .theory import (
    SignalIndices,
    SnrRegime,
    classify_snr,
    feasible_condition11,
    minimax_rate_extreme,
    rate_psi,
    signal_indices,
)

__version__ = "0.1.0"
