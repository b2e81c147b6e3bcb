"""Simulation and theory engine for learning linear classifiers from
multiple noisy labelers."""

from .links import (
    CovariateDistribution,
    CovariateKind,
    FitResult,
    LinkFamily,
    LinkSpec,
    ModelSpec,
    MultiLabelDataset,
    TheoryPrediction,
    beta_regular,
    isotropic_gaussian,
    link_antiderivative,
    link_derivative,
    link_eval,
    logistic_link,
    scaled_logistic_link,
    tabulated_link,
)
from .datagen import (
    majority_vote_matrix,
    sample_covariates,
    sample_dataset,
    sample_labels,
    stream_rng,
)
from .estimators import (
    DimensionMismatch,
    LossMode,
    LossSpec,
    NonConvergence,
    SolverOptions,
    fit,
    link_loss,
    loss_gradient,
    loss_hessian,
    loss_value,
)
from .theory import (
    BracketNotFound,
    DivergentIntegral,
    GapFunction,
    GapMode,
    NotOrthogonal,
    PredictionKind,
    ZExpectationEngine,
    binom_tail_transform,
    construct_matching_link,
    gap_eval,
    inverse_binom_tail_transform,
    largem_constants,
    largem_rho_limit_check,
    largem_tz_limit_check,
    predict_covariance,
    pseudo_inverse_decomp,
    rho_m,
    solve_tm,
)
from .semiparam import (
    ALPHA_FLOOR,
    AlphaEstimate,
    IsotonicFitOptions,
    LinkFitDiagnostics,
    SemiparametricResult,
    crowdsourced_fit,
    estimate_alpha,
    fit_links_with_diagnostics,
    semiparametric_fit,
    split_stages,
)
from .montecarlo import (
    ExperimentConfig,
    ScalingStudy,
    TooFewIncludedTrials,
    TrialSummary,
    empirical_multiplier,
    run_experiment,
    scaling_study,
)

__version__ = "0.1.0"
