import dataclasses
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from labelsim import (
    ExperimentConfig,
    LabelCounts,
    LossSpec,
    ModelSpec,
    MultiLabelDataset,
    NonConvergence,
    TooFewIncludedTrials,
    empirical_multiplier,
    fit,
    isotropic_gaussian,
    logistic_link,
    montecarlo,
    run_experiment,
    sample_covariates,
    sample_dataset,
    sample_label_counts,
    sample_majority_votes,
    scaled_logistic_link,
    scaling_study,
    semiparametric_fit,
    tabulated_link,
)
from labelsim.datagen import LABEL_COUNT_CROSSOVER
from labelsim.montecarlo import _replicate_links

LR = logistic_link()


def _config(n=10_000, trials=200, m=1, t_star=1.0, d=3, seed=0,
            estimator="multilabel", links=None, **kw):
    theta = np.zeros(d)
    theta[0] = t_star
    model = ModelSpec(theta_star=theta, links=links or (LR,) * m,
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


def _no_convergence(*args, **kwargs):
    raise NonConvergence("no convergence")


# (flag, trials excluded, config) of each reason a trial is excluded
_EXCLUSIONS = [
    # large margin and tiny n make most trials linearly separable
    ("separable", "5/10", _config(n=30, trials=10, t_star=8.0)),
    # a labeler that always says +1 has a constant label column
    ("degenerate-labeler", "5/5", _config(
        n=2000, trials=5, seed=1, estimator="semiparam",
        links=(LR, LR, tabulated_link([-1.0, 1.0], [1.0, 1.0])))),
    # a near-noiseless labeler separates its 1-D reliability fit
    ("alpha-degenerate", "5/5", _config(
        n=2000, trials=5, seed=1, estimator="crowd",
        links=(LR, scaled_logistic_link(1e6)))),
    # every fit raises (fit is replaced below)
    ("non-convergence", "5/5", _config(n=2000, trials=5, seed=1)),
]


@pytest.mark.parametrize("flag, excluded, config", _EXCLUSIONS,
                         ids=[case[0] for case in _EXCLUSIONS])
def test_too_many_excluded_trials_raise_naming_the_flag(monkeypatch, flag,
                                                        excluded, config):
    if flag == "non-convergence":
        monkeypatch.setattr(montecarlo, "fit", _no_convergence)
    with pytest.raises(TooFewIncludedTrials,
                       match=f"^{excluded} trials excluded .*; flags: {flag}$"):
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


def test_majority_on_labelers_flatter_than_the_model_link_runs():
    # alpha = 0.2 labelers under the logistic model link: the majority
    # root lies below t*
    model = ModelSpec(theta_star=np.array([2.0, 0.0, 0.0]),
                      links=(scaled_logistic_link(0.2),) * 4,
                      covariates=isotropic_gaussian(3))
    summary = run_experiment(ExperimentConfig(model=model, estimator="majority",
                                              n=4000, trials=10, seed=5))
    assert summary.excluded_count == 0
    assert 0.0 < summary.theory.t_m < 2.0
    assert np.isfinite(summary.theory.variance_multiplier)


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


def test_scaling_study_rejects_repeated_labeler_counts(monkeypatch):
    # m=4 twice fits no slope (polyfit on equal x): refused before any trial
    def no_trials(configs):
        raise AssertionError("a trial ran")
    monkeypatch.setattr(montecarlo, "_run_experiments", no_trials)
    base = _config(n=500, trials=2)
    for m_values in ([4, 4], [1, 4, 4, 16]):
        with pytest.raises(ValueError, match="strictly ascending"):
            scaling_study(base, m_values)


def _per_m_study(base, m_values):
    """The m-major scaling study, kept as the reference: one run_experiment
    per labeler count, each drawing its trials' covariates anew."""
    rows = []
    for m in m_values:
        model = ModelSpec(theta_star=base.model.theta_star,
                          links=_replicate_links(base.model.links, m),
                          covariates=base.model.covariates)
        summary = run_experiment(dataclasses.replace(base, model=model))
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
    return tuple(rows), float(np.polyfit(logm, logc, 1)[0])


@pytest.mark.parametrize("base, m_values", [
    (_config(n=3000, trials=4, t_star=2.0, seed=4,
             links=(scaled_logistic_link(0.2), scaled_logistic_link(10.0))),
     [2, 4, 8]),
    (_config(n=3000, trials=4, t_star=2.0, seed=4, estimator="majority"),
     [1, 3, 4, 16]),
    (_config(n=4000, trials=2, seed=4, estimator="semiparam"), [2, 3]),
], ids=["multilabel-mixture", "majority", "semiparam"])
def test_scaling_study_equals_per_m_run_experiment(base, m_values):
    # trial-major: each trial draws X once for every m; the rows must be
    # those of separate per-m runs, bit for bit
    study = scaling_study(base, m_values)
    rows, slope = _per_m_study(base, m_values)
    assert study.rows == rows
    assert study.slope == slope


def test_trials_draw_from_the_public_samplers():
    # trial t of a run is the estimator on the public samplers' draw at
    # (seed, t): the multi-label and semiparametric data of sample_dataset,
    # the majority votes of sample_majority_votes on sample_covariates' X
    n, seed, trials = 3000, 11, 3
    for estimator in ("multilabel", "majority", "semiparam"):
        config = _config(n=n, trials=trials, m=3, seed=seed, estimator=estimator)
        model = config.model
        summary = run_experiment(config)
        for t in range(trials):
            if estimator == "majority":
                X = sample_covariates(model.covariates, n, seed, t)
                data = MultiLabelDataset(X=X, Y=sample_majority_votes(model, X, seed, t))
                want = fit(LossSpec(), data).u_hat
            elif estimator == "multilabel":
                want = fit(LossSpec(), sample_dataset(model, n, seed, t)).u_hat
            else:
                want = semiparametric_fit(sample_dataset(model, n, seed, t),
                                          config.split_fraction,
                                          config.isotonic).fit.u_hat
            assert np.array_equal(summary.u_hats[t], want), (estimator, t)


def test_multilabel_trials_fit_drawn_label_counts():
    # at and above the crossover a multi-label trial fits the counts that
    # sample_label_counts draws from their law on sample_covariates' X
    n, seed, trials = 3000, 12, 2
    config = _config(n=n, trials=trials, m=LABEL_COUNT_CROSSOVER, t_star=2.0,
                     seed=seed)
    model = config.model
    summary = run_experiment(config)
    for t in range(trials):
        X = sample_covariates(model.covariates, n, seed, t)
        counts = LabelCounts(X=X, counts=sample_label_counts(model, X, seed, t),
                             m=model.m)
        assert np.array_equal(summary.u_hats[t], fit(LossSpec(), counts).u_hat), t


def test_scaling_study_raises_for_the_first_m_over_the_cap():
    # majority labels sharpen with m, so small-n trials turn separable: at
    # seed 3, m = 16 excludes 4/10 trials and m = 64 7/10. The study raises
    # after all trials have run, for the same m and with the same message
    # as the per-m runs, which stop at m = 16
    base = _config(n=40, trials=10, t_star=3.0, seed=3, estimator="majority")
    m_values = [1, 4, 16, 64]
    with pytest.raises(TooFewIncludedTrials) as per_m:
        _per_m_study(base, m_values)
    with pytest.raises(TooFewIncludedTrials) as study:
        scaling_study(base, m_values)
    assert str(study.value) == str(per_m.value)
    assert str(study.value).startswith("4/10 trials excluded")


_FAULT_PROBE = """
import json, resource
import numpy as np
from labelsim import (ExperimentConfig, ModelSpec, isotropic_gaussian,
                      logistic_link, scaling_study)
model = ModelSpec(theta_star=np.array([2.0, 0.0, 0.0, 0.0, 0.0]),
                  links=(logistic_link(),), covariates=isotropic_gaussian(5))
base = ExperimentConfig(model=model, estimator="majority", n=20_000,
                        trials=2, seed=3)
faults = []
for _ in range(2):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    scaling_study(base, [1, 4])
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
print(json.dumps(faults))
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="the engine pins malloc thresholds through glibc's "
                           "mallopt; this C library is not glibc")
def test_rerun_keeps_the_heap_resident():
    # A majority study's freed fit and vote temporaries must stay in the
    # heap: with glibc's dynamic thresholds a rerun took about 2300 minor
    # page faults, faulting them back in after every trial. A fresh
    # interpreter, so no earlier test has set the thresholds already.
    src = str(Path(montecarlo.__file__).resolve().parent.parent)
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONPATH=src)
    for var in ("MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_"):
        env.pop(var, None)
    proc = subprocess.run([sys.executable, "-c", _FAULT_PROBE], env=env,
                          capture_output=True, text=True, timeout=300,
                          check=True)
    first, rerun = json.loads(proc.stdout.strip().splitlines()[-1])
    assert rerun <= 100, (first, rerun)
