"""Monte Carlo orchestration: run seeded trials, aggregate normalized
estimates, and compare empirical covariances against theory predictions."""

from __future__ import annotations

import ctypes
import dataclasses
import functools
from dataclasses import dataclass, field

import numpy as np

from .datagen import (
    sample_covariates,
    sample_label_counts,
    sample_labels,
    sample_majority_votes,
)

# unused here; the benchmark tracer (perfbench/tracing.py) patches
# montecarlo.sample_dataset, and ``--trace 1`` fails without the name
from .datagen import sample_dataset  # noqa: F401
from .estimators import LossSpec, NonConvergence, fit
from .links import (
    LabelCounts,
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
    split_stages,
)
from .theory import PredictionKind, _projected_pinv, predict_covariance

__all__ = [
    "TooFewIncludedTrials",
    "ExperimentConfig",
    "TrialSummary",
    "ScalingStudy",
    "run_experiment",
    "scaling_study",
    "empirical_multiplier",
]

_THEORY_KIND = {
    "multilabel": PredictionKind.MULTI_LABEL_EXACT,
    "majority": PredictionKind.MAJORITY_VOTE_EXACT,
    "semiparam": PredictionKind.SEMIPARAMETRIC,
    "crowd": PredictionKind.CROWDSOURCING,
}

EXCLUSION_CAP = 0.2

# glibc's mallopt parameter numbers (malloc.h) and the bytes the engine pins
# them to; trim at twice the mmap threshold is glibc's own dynamic rule
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_MMAP_THRESHOLD_BYTES = 16 << 20
_TRIM_THRESHOLD_BYTES = 2 * _MMAP_THRESHOLD_BYTES


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
        if self.estimator not in _THEORY_KIND:
            raise ValueError(f"estimator must be one of {tuple(_THEORY_KIND)}")
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


def _fit_trial(config: ExperimentConfig, ds: MultiLabelDataset | LabelCounts):
    """Fit one trial's dataset; returns (u_hat, flag, n_eff)."""
    model = config.model
    try:
        if config.estimator in ("multilabel", "majority"):
            # a multi-label trial holds label counts, a majority trial its
            # n x 1 vote column (_draw)
            res = fit(LossSpec(model_link=config.model_link), ds)
            n_eff = config.n
        elif config.estimator == "semiparam":
            sp = semiparametric_fit(ds, config.split_fraction, config.isotonic)
            if any(sp.diagnostics.degenerate):
                return None, "degenerate-labeler", 0
            res = sp.fit
            n_eff = sp.stage2_index.size
        else:  # crowd
            ds1, ds2 = split_stages(ds, config.split_fraction)
            est = estimate_alpha(ds1, model.u_star)
            if np.any(est.separable) or np.any(est.below_floor):
                return None, "alpha-degenerate", 0
            res = crowdsourced_fit(ds2, est.alpha)
            n_eff = ds2.n
    except NonConvergence:
        return None, "non-convergence", 0
    if res.separable:
        return None, "separable", 0
    return res.u_hat, "", n_eff


def _draw(config: ExperimentConfig, X: np.ndarray,
          trial: int) -> MultiLabelDataset | LabelCounts:
    """What the config's fit reads on X: for multi-label each row's count of
    +1 labels (``sample_label_counts``), for majority vote the n x 1 vote
    column drawn from the vote's exact law (``sample_majority_votes``), and
    otherwise the n x m labels."""
    model, seed = config.model, config.seed
    if config.estimator == "multilabel":
        return LabelCounts(X=X, counts=sample_label_counts(model, X, seed, trial),
                           m=model.m)
    sample = sample_majority_votes if config.estimator == "majority" else sample_labels
    return MultiLabelDataset(X=X, Y=sample(model, X, seed, trial))


def _run_trial(configs: list[ExperimentConfig], trial: int) -> list[tuple]:
    """One seeded trial of every config on one draw of covariates: X is
    drawn once, column-major (``sample_covariates``), then each config
    draws only its label counts, votes or labels on it (``_draw``) and is
    fitted before the next draws.
    Returns one (u_hat, flag, n_eff) per config."""
    first = configs[0]
    X = sample_covariates(first.model.covariates, first.n, first.seed, trial)
    return [_fit_trial(config, _draw(config, X, trial)) for config in configs]


def _summarize(config: ExperimentConfig, u_rows: np.ndarray, flags: list[str],
               n_eff: int) -> TrialSummary:
    """Aggregate one config's trials and compare them with its theory
    prediction; raises TooFewIncludedTrials over the exclusion cap."""
    model = config.model
    d = model.d
    u_star = model.u_star
    included = [i for i, flag in enumerate(flags) if flag == ""]
    excluded = config.trials - len(included)
    if excluded > EXCLUSION_CAP * config.trials:
        raise TooFewIncludedTrials(
            f"{excluded}/{config.trials} trials excluded "
            f"(cap {EXCLUSION_CAP:.0%}); flags: "
            + ", ".join(sorted(set(f for f in flags if f))))

    devs = np.sqrt(n_eff) * (u_rows[included] - u_star)
    emp_cov = devs.T @ devs / len(included)

    theory = predict_covariance(_THEORY_KIND[config.estimator], model,
                                model_link=config.model_link)
    p_perp = np.eye(d) - np.outer(u_star, u_star)
    diff = p_perp @ (emp_cov - theory.covariance) @ p_perp
    ref = p_perp @ theory.covariance @ p_perp
    comparison = float(np.linalg.norm(diff) / np.linalg.norm(ref))
    return TrialSummary(u_hats=u_rows, flags=tuple(flags), empirical_cov=emp_cov,
                        comparison=comparison, excluded_count=excluded,
                        included_count=len(included), n_effective=n_eff,
                        theory=theory)


@functools.cache
def _keep_heap_resident() -> None:
    """Pin glibc's mmap and trim thresholds for the process, once.

    glibc raises both thresholds to the largest block freed so far (trim at
    twice mmap). With n x d covariates the largest, a fit's temporaries
    (its X^T copy, the Hessian product, the kernel's n-vectors) exceed the
    trim threshold, so every fit and vote draw handed its memory back to
    the OS and the next one faulted it in again. Setting either threshold
    turns that adjustment off, so both are set: trim alone would leave mmap
    at its 128 KiB default and map every n-vector. Without a ``mallopt`` (a
    C library other than glibc) this does nothing."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_BYTES)
    mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD_BYTES)


def _run_experiments(configs: list[ExperimentConfig]) -> list[TrialSummary]:
    """The Monte Carlo engine: run the configs' trials trial-major, then
    summarize each config in order.

    The configs share n, seed, trials and covariate distribution, so trial t
    draws X once for all of them and then each config's counts, votes or
    labels on it (``_run_trial``). Every (seed, trial, purpose) stream is
    independent of call order, so each config sees the data a run of its
    own would draw, bit for bit.

    The first call pins glibc's mmap threshold at 16 MiB and its trim
    threshold at 32 MiB for the rest of the process
    (``_keep_heap_resident``), so freed trial memory stays in the heap for
    the next trial. Rerun in one process, a majority ``scaling_study``
    (n = 20000, d = 5, m = 1, 4, 16, 64, 5 trials) took 11k-14k minor
    page faults without it and under 100 with it. Every temporary of a
    trial up to m = 64 labels (10 MB) fits under the mmap threshold. A
    multi-label study at m = 1, 4, 16, 64, 256, 1024 (n = 20000, 3 trials)
    peaks at 85 MB: from 32 labelers on its trials draw counts, not the
    n x m labels, which took it to 271 MB."""
    _keep_heap_resident()
    u_rows = [np.full((config.trials, config.model.d), np.nan)
              for config in configs]
    flags = [[] for _ in configs]
    n_eff = [0] * len(configs)
    for trial in range(configs[0].trials if configs else 0):
        for c, (u_hat, flag, trial_n) in enumerate(_run_trial(configs, trial)):
            flags[c].append(flag)
            if flag == "":
                u_rows[c][trial] = u_hat
                n_eff[c] = trial_n
    return [_summarize(config, u_rows[c], flags[c], n_eff[c])
            for c, config in enumerate(configs)]


def run_experiment(config: ExperimentConfig) -> TrialSummary:
    """Run config.trials seeded trials, aggregate them and compare with the
    estimator's theory prediction (``predict_covariance`` of the model under
    the config's model link; crowd reads its reliabilities from the model's
    scaled-logistic true links). This is the engine of ``scaling_study``
    over one config.

    Separable/degenerate/non-convergent trials are excluded and counted;
    raises TooFewIncludedTrials when exclusions exceed the 20% cap.
    """
    return _run_experiments([config])[0]


def empirical_multiplier(summary: TrialSummary, model: ModelSpec) -> float:
    """Scalar multiplier implied by the empirical covariance: the trace ratio
    against the projected-pseudo-inverse base matrix."""
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
    theory prediction (``run_experiment``) beside it. ``m_values`` must be
    strictly ascending, else ValueError before any trial runs.

    At each m the base links are cycled to length m (a base of k links gives
    links[i % k] to labeler i), so a k-link base keeps its average true link
    only at multiples of k.

    The study runs trial-major on the engine of ``run_experiment``: trial t
    draws its covariates once and each m only its own labels on them, so
    every row equals that of a separate ``run_experiment`` at its m. All
    trials of every m run before any m is summarized, so an m over the
    exclusion cap raises TooFewIncludedTrials only after the last trial,
    for the first such m."""
    m_values = list(m_values)
    if any(a >= b for a, b in zip(m_values, m_values[1:])):
        raise ValueError(f"m_values must be strictly ascending, got {m_values}")
    configs = [dataclasses.replace(base, model=ModelSpec(
        theta_star=base.model.theta_star,
        links=_replicate_links(base.model.links, m),
        covariates=base.model.covariates)) for m in m_values]
    rows = []
    for m, config, summary in zip(m_values, configs, _run_experiments(configs)):
        rows.append({
            "m": m,
            "t_m": summary.theory.t_m,
            "theory_multiplier": summary.theory.variance_multiplier,
            "empirical_multiplier": empirical_multiplier(summary, config.model),
            "included": summary.included_count,
            "excluded": summary.excluded_count,
            "comparison": summary.comparison,
        })
    logm = np.log([row["m"] for row in rows])
    logc = np.log([row["empirical_multiplier"] for row in rows])
    slope = float(np.polyfit(logm, logc, 1)[0]) if len(rows) > 1 else float("nan")
    return ScalingStudy(rows=tuple(rows), slope=slope)
