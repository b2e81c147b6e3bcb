import numpy as np
import pytest

from labelsim import (
    ExperimentConfig,
    ModelSpec,
    TooFewIncludedTrials,
    empirical_multiplier,
    isotropic_gaussian,
    logistic_link,
    run_experiment,
    scaling_study,
)

LR = logistic_link()


def _config(n=10_000, trials=200, m=1, t_star=1.0, d=3, seed=0,
            estimator="multilabel", **kw):
    theta = np.zeros(d)
    theta[0] = t_star
    model = ModelSpec(theta_star=theta, links=(LR,) * m,
                      covariates=isotropic_gaussian(d))
    return ExperimentConfig(model=model, estimator=estimator, n=n,
                            trials=trials, seed=seed, **kw)


def test_well_specified_small_run_matches_theory():
    config = _config(n=10_000, trials=200)
    summary = run_experiment(config)
    assert summary.excluded_count == 0
    assert summary.comparison is not None and summary.comparison <= 0.25
    emp = empirical_multiplier(summary, config.model)
    assert emp == pytest.approx(summary.theory.variance_multiplier, rel=0.25)


def test_mean_and_radial_component_invariants():
    config = _config(n=10_000, trials=200)
    summary = run_experiment(config)
    u_star = config.model.u_star
    mean_dev = np.linalg.norm(np.nanmean(summary.u_hats, axis=0) - u_star)
    band = 3.0 * np.sqrt(np.trace(summary.empirical_cov) / config.n) \
        / np.sqrt(summary.included_count)
    assert mean_dev <= band
    radial = float(u_star @ summary.empirical_cov @ u_star)
    assert abs(radial) <= 0.05 * np.trace(summary.empirical_cov)


def test_same_seed_reproduces_exactly():
    config = _config(n=2000, trials=20)
    a = run_experiment(config)
    b = run_experiment(config)
    assert np.array_equal(a.u_hats, b.u_hats)
    assert np.array_equal(a.empirical_cov, b.empirical_cov)


def test_different_seeds_agree_within_bootstrap_bands():
    rng = np.random.default_rng(0)
    summaries = []
    for seed in (1, 2):
        summary = run_experiment(_config(n=4000, trials=150, seed=seed))
        summaries.append(summary)
    assert not np.array_equal(summaries[0].u_hats, summaries[1].u_hats)
    for a, b in [(0, 1), (1, 0)]:
        sa, sb = summaries[a], summaries[b]
        # bootstrap the trace of sa's covariance and check sb falls inside 3σ
        u_star = _config().model.u_star
        devs = np.sqrt(sa.n_effective) * (
            sa.u_hats[~np.isnan(sa.u_hats).any(axis=1)] - u_star)
        traces = []
        for _ in range(200):
            pick = rng.integers(0, devs.shape[0], devs.shape[0])
            traces.append(np.trace(devs[pick].T @ devs[pick] / devs.shape[0]))
        spread = float(np.std(traces))
        assert abs(np.trace(sa.empirical_cov) - np.trace(sb.empirical_cov)) \
            <= 3.0 * spread * 2.0  # both sides fluctuate


def test_minimal_two_trial_run_is_legal():
    summary = run_experiment(_config(n=500, trials=2))
    assert summary.included_count == 2
    assert summary.empirical_cov.shape == (3, 3)


def test_too_many_separable_trials_raises():
    # large margin and tiny n make most trials linearly separable
    config = _config(n=30, trials=10, t_star=8.0)
    with pytest.raises(TooFewIncludedTrials):
        run_experiment(config)


def test_config_validation():
    with pytest.raises(ValueError):
        _config(trials=1)
    with pytest.raises(ValueError):
        _config(n=3)
    with pytest.raises(ValueError):
        _config(estimator="unknown")


@pytest.mark.parametrize("split_fraction", [0.0, 1e-9])
def test_crowd_split_is_validated_like_semiparam(split_fraction):
    # an empty or (d + 1)-short stage 1 is a configuration error for both
    # two-stage pipelines, not a run of excluded trials
    for estimator in ("semiparam", "crowd"):
        config = _config(n=2000, trials=2, m=3, estimator=estimator,
                         split_fraction=split_fraction)
        with pytest.raises(ValueError, match="split"):
            run_experiment(config)


def test_majority_estimator_runs():
    summary = run_experiment(_config(n=5000, trials=50, m=3,
                                     estimator="majority"))
    assert summary.excluded_count == 0
    assert summary.theory.t_m > 1.0  # calibrated norm exceeds t* for m > 1


def test_scaling_study_slope_well_specified():
    base = _config(n=5000, trials=100, t_star=2.0, d=5)
    study = scaling_study(base, [1, 4, 16])
    assert len(study.rows) == 3
    assert study.slope == pytest.approx(-1.0, abs=0.2)
    for row in study.rows:
        assert row["empirical_multiplier"] == pytest.approx(
            row["theory_multiplier"], rel=0.35)
    with pytest.raises(ValueError):
        scaling_study(base, [4, 1])
