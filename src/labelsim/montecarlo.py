"""Monte Carlo orchestration: run seeded trials, aggregate normalized
estimates, and compare empirical covariances against theory predictions."""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import numpy as np

from .datagen import sample_dataset
from .estimators import LossMode, LossSpec, NonConvergence, fit
from .links import (
    LinkFamily,
    LinkSpec,
    ModelSpec,
    MultiLabelDataset,
    TheoryPrediction,
    logistic_link,
)
from .semiparam import (
    IsotonicFitOptions,
    crowdsourced_fit,
    estimate_alpha,
    semiparametric_fit,
)
from .theory import PredictionKind, predict_covariance

__all__ = [
    "TooFewIncludedTrials",
    "ExperimentConfig",
    "TrialSummary",
    "ScalingStudy",
    "run_experiment",
    "scaling_study",
    "empirical_multiplier",
]

ESTIMATORS = ("multilabel", "majority", "semiparam", "crowd")

_THEORY_KIND = {
    "multilabel": PredictionKind.MULTI_LABEL_EXACT,
    "majority": PredictionKind.MAJORITY_VOTE_EXACT,
    "semiparam": PredictionKind.SEMIPARAMETRIC,
    "crowd": PredictionKind.CROWDSOURCING,
}

EXCLUSION_CAP = 0.2


class TooFewIncludedTrials(RuntimeError):
    pass


@dataclass(frozen=True)
class ExperimentConfig:
    model: ModelSpec
    estimator: str
    n: int
    trials: int
    seed: int = 0
    model_link: LinkSpec = field(default_factory=logistic_link)
    split_fraction: float = 0.1
    isotonic: IsotonicFitOptions = field(default_factory=IsotonicFitOptions)

    def __post_init__(self):
        if self.estimator not in ESTIMATORS:
            raise ValueError(f"estimator must be one of {ESTIMATORS}")
        if self.trials < 2:
            raise ValueError("need at least 2 trials")
        if self.n < self.model.d + 1:
            raise ValueError("need n >= d + 1")


@dataclass(frozen=True)
class TrialSummary:
    """Aggregated trial results.

    empirical_cov is the second moment of sqrt(n_eff)(u_hat - u*) over the
    included trials; comparison is the relative Frobenius error against the
    theory prediction after projecting both onto the u*-orthogonal subspace.
    """

    u_hats: np.ndarray
    flags: tuple[str, ...]
    empirical_cov: np.ndarray
    comparison: float
    excluded_count: int
    included_count: int
    n_effective: int
    theory: TheoryPrediction


@dataclass(frozen=True)
class ScalingStudy:
    rows: tuple[dict, ...]
    slope: float


def _model_alpha(model: ModelSpec) -> np.ndarray:
    """Reliabilities of scaled-logistic true links (1 for logistic)."""
    if any(link.family is LinkFamily.TABULATED_MONOTONE for link in model.links):
        raise ValueError("crowd theory needs (scaled-)logistic true links")
    return np.asarray([link.alpha for link in model.links])


def _run_trial(config: ExperimentConfig, trial: int):
    """One seeded trial; returns (u_hat, flag, n_eff)."""
    model = config.model
    ds = sample_dataset(model, config.n, config.seed, trial)
    try:
        if config.estimator == "multilabel":
            res = fit(LossSpec(mode=LossMode.MULTI_LABEL,
                               model_link=config.model_link), ds)
            n_eff = config.n
        elif config.estimator == "majority":
            res = fit(LossSpec(mode=LossMode.MAJORITY_VOTE,
                               model_link=config.model_link,
                               tie_seed=config.seed, tie_trial=trial), ds)
            n_eff = config.n
        elif config.estimator == "semiparam":
            sp = semiparametric_fit(ds, config.split_fraction, config.isotonic)
            if any(sp.diagnostics.degenerate):
                return None, "degenerate-labeler", 0
            res = sp.fit
            n_eff = sp.stage2_index.size
        else:  # crowd
            n1 = int(np.ceil(config.split_fraction * config.n))
            est = estimate_alpha(
                MultiLabelDataset(X=ds.X[:n1], Y=ds.Y[:n1]), model.u_star)
            if np.any(est.separable) or np.any(est.below_floor):
                return None, "alpha-degenerate", 0
            rest = MultiLabelDataset(X=ds.X[n1:], Y=ds.Y[n1:])
            res = crowdsourced_fit(rest, est.alpha)
            n_eff = config.n - n1
    except NonConvergence:
        return None, "non-convergence", 0
    if res.separable:
        return None, "separable", 0
    return res.u_hat, "", n_eff


def run_experiment(config: ExperimentConfig) -> TrialSummary:
    """Run config.trials seeded trials, aggregate them and compare with the
    estimator's theory prediction (``predict_covariance`` under the
    config's model link; for crowd, the true links' reliabilities).

    Separable/degenerate/non-convergent trials are excluded and counted;
    raises TooFewIncludedTrials when exclusions exceed the 20% cap.
    """
    model = config.model
    d = model.d
    u_star = model.u_star
    u_rows = np.full((config.trials, d), np.nan)
    flags = []
    n_eff = 0
    for trial in range(config.trials):
        u_hat, flag, trial_n = _run_trial(config, trial)
        flags.append(flag)
        if flag == "":
            u_rows[trial] = u_hat
            n_eff = trial_n
    included = [i for i, flag in enumerate(flags) if flag == ""]
    excluded = config.trials - len(included)
    if excluded > EXCLUSION_CAP * config.trials:
        raise TooFewIncludedTrials(
            f"{excluded}/{config.trials} trials excluded "
            f"(cap {EXCLUSION_CAP:.0%}); flags: "
            + ", ".join(sorted(set(f for f in flags if f))))

    devs = np.sqrt(n_eff) * (u_rows[included] - u_star)
    emp_cov = devs.T @ devs / len(included)

    kind = _THEORY_KIND[config.estimator]
    alpha = _model_alpha(model) if kind is PredictionKind.CROWDSOURCING else None
    theory = predict_covariance(kind, model, model_link=config.model_link,
                                alpha=alpha)
    p_perp = np.eye(d) - np.outer(u_star, u_star)
    diff = p_perp @ (emp_cov - theory.covariance) @ p_perp
    ref = p_perp @ theory.covariance @ p_perp
    comparison = float(np.linalg.norm(diff) / np.linalg.norm(ref))
    return TrialSummary(u_hats=u_rows, flags=tuple(flags), empirical_cov=emp_cov,
                        comparison=comparison, excluded_count=excluded,
                        included_count=len(included), n_effective=n_eff,
                        theory=theory)


def empirical_multiplier(summary: TrialSummary, model: ModelSpec) -> float:
    """Scalar multiplier implied by the empirical covariance: the trace ratio
    against the projected-pseudo-inverse base matrix."""
    from .theory import _projected_pinv

    u_star = model.u_star
    p_perp = np.eye(model.d) - np.outer(u_star, u_star)
    base = _projected_pinv(model.covariates, u_star)
    proj = p_perp @ summary.empirical_cov @ p_perp
    return float(np.trace(proj) / np.trace(base))


def _replicate_links(links: tuple[LinkSpec, ...], m: int) -> tuple[LinkSpec, ...]:
    reps = -(-m // len(links))
    return tuple(links * reps)[:m]


def scaling_study(base: ExperimentConfig, m_values) -> ScalingStudy:
    """Run the base experiment at each labeler count and fit the log-log
    slope of the empirical multiplier against m; each row holds the run's
    theory prediction (``run_experiment``) beside it.

    At each m the base links are cycled to length m (a base of k links gives
    links[i % k] to labeler i), so a k-link base keeps its average true link
    only at multiples of k."""
    m_values = list(m_values)
    if m_values != sorted(m_values):
        raise ValueError("m_values must be ascending")
    rows = []
    for m in m_values:
        model = ModelSpec(theta_star=base.model.theta_star,
                          links=_replicate_links(base.model.links, m),
                          covariates=base.model.covariates)
        config = dataclasses.replace(base, model=model)
        summary = run_experiment(config)
        rows.append({
            "m": m,
            "t_m": summary.theory.t_m,
            "theory_multiplier": summary.theory.variance_multiplier,
            "empirical_multiplier": empirical_multiplier(summary, model),
            "included": summary.included_count,
            "excluded": summary.excluded_count,
            "comparison": summary.comparison,
        })
    logm = np.log([row["m"] for row in rows])
    logc = np.log([row["empirical_multiplier"] for row in rows])
    slope = float(np.polyfit(logm, logc, 1)[0]) if len(rows) > 1 else float("nan")
    return ScalingStudy(rows=tuple(rows), slope=slope)
