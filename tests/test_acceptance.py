"""End-to-end acceptance checks: each test prints a single PASS/FAIL line
summarizing one verifiable claim about the library (equivalence constructions,
derivative correctness, exact majority probabilities, Monte-Carlo-vs-theory
agreement, limit constants, and reproducibility)."""

import itertools
import os
import tempfile
import time

import numpy as np
import pytest

from labelsim import (
    ExperimentConfig,
    GapFunction,
    GapMode,
    LossMode,
    LossSpec,
    ModelSpec,
    MultiLabelDataset,
    PredictionKind,
    ZExpectationEngine,
    binom_tail_transform,
    construct_matching_link,
    isotropic_gaussian,
    beta_regular,
    largem_constants,
    largem_rho_limit_check,
    largem_tz_limit_check,
    link_derivative,
    link_eval,
    logistic_link,
    loss_gradient,
    loss_hessian,
    loss_value,
    predict_covariance,
    pseudo_inverse_decomp,
    rho_m,
    run_experiment,
    scaling_study,
    scaled_logistic_link,
    semiparametric_fit,
    solve_tm,
    tabulated_link,
)
from labelsim.cli import main as cli_main
from labelsim.datagen import sample_dataset
from labelsim.montecarlo import empirical_multiplier

LR = logistic_link()


def _report(num: int, name: str, ok: bool, detail: str):
    print(f"[{num:2d}] {name}: {'PASS' if ok else 'FAIL'} ({detail})")


def _model(d, t_star, links):
    theta = np.zeros(d)
    theta[0] = t_star
    return ModelSpec(theta_star=theta, links=links,
                     covariates=isotropic_gaussian(d))


def _link_l2(link, true_link):
    from scipy import stats

    z = np.linspace(-5, 5, 2001)
    w = stats.norm.pdf(z)
    diff = link_eval(link, z) - link_eval(true_link, z)
    return float(np.sqrt(np.trapezoid(diff * diff * w, z)))


def test_01_majority_equivalence_construction():
    # a single labeler with the matched link reproduces the three-labeler
    # majority label distribution exactly at every checked margin
    start = time.perf_counter()
    t_star, m, m_bar = 1.5, 3, 1
    theta = np.array([t_star, 0.0])
    grid = np.linspace(-6.0 * t_star, 6.0 * t_star, 200)
    matched = construct_matching_link(LR, theta, m, theta, m_bar, grid=grid)
    original = binom_tail_transform(link_eval(LR, grid), m)
    rebuilt = binom_tail_transform(link_eval(matched, grid), m_bar)
    gap = float(np.max(np.abs(original - rebuilt)))
    elapsed = time.perf_counter() - start
    ok = gap <= 1e-10 and elapsed < 1.0
    _report(1, "single-labeler equivalence construction", ok,
            f"max gap {gap:.2e}, {elapsed:.3f}s")
    assert gap <= 1e-10
    assert elapsed < 1.0


def test_02_gradients_and_hessians_match_finite_differences():
    start = time.perf_counter()
    rng = np.random.default_rng(42)
    grid = np.linspace(-3, 3, 13)
    tab = tabulated_link(grid, np.clip(0.5 + 0.4 * np.tanh(grid), 0, 1))
    specs = [
        ("multilabel", 4, LossSpec(mode=LossMode.MULTI_LABEL)),
        ("majority", 3, LossSpec(mode=LossMode.MAJORITY_VOTE)),
        ("per-labeler", 3, LossSpec(
            mode=LossMode.PER_LABELER,
            links=(tab, LR, scaled_logistic_link(0.7)))),
        ("crowd", 3, LossSpec(mode=LossMode.CROWD_SCALED, links=tuple(
            scaled_logistic_link(a) for a in (0.5, 1.0, 2.0)))),
    ]
    d, h_g, h_h = 3, 1e-6, 1e-5
    worst_g = worst_h = 0.0
    for _, m, spec in specs:
        for _ in range(100):
            x = rng.standard_normal((1, d))
            y = rng.choice([-1, 1], size=(1, m))
            ds = MultiLabelDataset(X=x, Y=y)
            theta = rng.standard_normal(d)
            g = loss_gradient(spec, theta, ds)
            H = loss_hessian(spec, theta, ds)
            for k in range(d):
                e = np.zeros(d)
                e[k] = h_g
                fd = (loss_value(spec, theta + e, ds)
                      - loss_value(spec, theta - e, ds)) / (2 * h_g)
                worst_g = max(worst_g, abs(g[k] - fd))
                e[k] = h_h
                fd_g = (loss_gradient(spec, theta + e, ds)
                        - loss_gradient(spec, theta - e, ds)) / (2 * h_h)
                worst_h = max(worst_h, float(np.max(np.abs(H[:, k] - fd_g))))
    elapsed = time.perf_counter() - start
    ok = worst_g <= 1e-6 and worst_h <= 1e-4 and elapsed < 10.0
    _report(2, "loss derivatives vs finite differences", ok,
            f"grad err {worst_g:.2e}, hess err {worst_h:.2e}, {elapsed:.1f}s")
    assert worst_g <= 1e-6
    assert worst_h <= 1e-4
    assert elapsed < 10.0


def test_03_majority_probability_matches_enumeration():
    start = time.perf_counter()
    rng = np.random.default_rng(7)
    worst = 0.0
    for m in range(1, 13):
        links = tuple(scaled_logistic_link(a)
                      for a in rng.uniform(0.3, 3.0, size=m))
        patterns = ((np.arange(2 ** m)[:, None] >> np.arange(m)) & 1) * 2 - 1
        sums = patterns.sum(axis=1)
        vote_plus = np.where(sums > 0, 1.0, np.where(sums < 0, 0.0, 0.5))
        for t in rng.uniform(-2.5, 2.5, size=50):
            probs = np.array([link_eval(link, float(t)) for link in links])
            pattern_prob = np.prod(
                np.where(patterns == 1, probs, 1.0 - probs), axis=1)
            p_plus = float(pattern_prob @ vote_plus)
            enum = p_plus if t > 0 else (1.0 - p_plus if t < 0 else 0.5)
            worst = max(worst, abs(rho_m(float(t), m, links) - enum))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-13 and elapsed < 30.0
    _report(3, "majority probability vs full enumeration", ok,
            f"max err {worst:.2e}, {elapsed:.1f}s")
    assert worst <= 1e-13
    assert elapsed < 30.0


def test_04_well_specified_one_over_m_law():
    base = ExperimentConfig(model=_model(5, 2.0, (LR,)),
                            estimator="multilabel", n=20_000, trials=400)
    study = scaling_study(base, [1, 4, 16])
    rel = [abs(row["empirical_multiplier"] / row["theory_multiplier"] - 1.0)
           for row in study.rows]
    ok = max(rel) <= 0.25 and abs(study.slope - (-1.0)) <= 0.15
    _report(4, "well-specified 1/m covariance law", ok,
            f"max rel err {max(rel):.3f}, slope {study.slope:.3f}")
    assert max(rel) <= 0.25
    assert abs(study.slope - (-1.0)) <= 0.15


def test_05_majority_vote_sqrt_m_law():
    base = ExperimentConfig(model=_model(5, 2.0, (LR,)),
                            estimator="majority", n=20_000, trials=400)
    study = scaling_study(base, [1, 4, 16, 64])
    rel = [abs(row["empirical_multiplier"] / row["theory_multiplier"] - 1.0)
           for row in study.rows]
    g = GapFunction(mode=GapMode.MAJORITY_VOTE, t_star=2.0, m=1024,
                    model_link=LR, true_links=(LR,) * 1024,
                    engine=ZExpectationEngine(dist=isotropic_gaussian(5)))
    ratio = solve_tm(g) / (2.0 * np.sqrt(1024))
    a = largem_constants(1.0, np.sqrt(2 / np.pi), LR, 0.25)["a"]
    ok = (max(rel) <= 0.30 and abs(study.slope - (-0.5)) <= 0.2
          and abs(ratio / a - 1.0) <= 0.05)
    _report(5, "majority-vote 1/sqrt(m) covariance law", ok,
            f"max rel err {max(rel):.3f}, slope {study.slope:.3f}, "
            f"t_m ratio/a {ratio / a:.4f}")
    assert max(rel) <= 0.30
    assert abs(study.slope - (-0.5)) <= 0.2
    assert abs(ratio / a - 1.0) <= 0.05


def _floor_intercept(m_values, mults):
    # intercept a of the fit mult = a + b / m through the two largest m
    (m1, c1), (m2, c2) = zip(m_values[-2:], mults[-2:])
    b = (c1 - c2) / (1.0 / m1 - 1.0 / m2)
    return c2 - b / m2


def test_06_misspecification_contrast():
    # Misspecified truth, logistic model. Multi-label ERM keeps an m-free
    # covariance floor E[(sigma(t_m Z) - phi(t* Z))^2] when the average true
    # link phi lies outside the scaled-logistic family, while majority vote
    # keeps improving with m. scaling_study cycles the base links, so the
    # slope-0.2 / slope-10 pair has the same average link at every even m,
    # and no t_m makes sigma(t_m z) match it. (Identical scaled-logistic
    # labelers would not do: the model recalibrates them exactly, t_m =
    # alpha t*, and their multiplier decays as 1/m; see test_theory.py.)
    ml_m = [2, 16, 64]
    mixture = (scaled_logistic_link(0.2), scaled_logistic_link(10.0))
    ml_base = ExperimentConfig(model=_model(5, 2.0, mixture),
                               estimator="multilabel", n=20_000, trials=150)
    ml = scaling_study(ml_base, ml_m)
    ml_emp = [row["empirical_multiplier"] for row in ml.rows]
    ml_theory = [row["theory_multiplier"] for row in ml.rows]
    rel = [abs(e / t - 1.0) for e, t in zip(ml_emp, ml_theory)]
    floor = _floor_intercept(ml_m, ml_emp)
    theory_floor = _floor_intercept(ml_m, ml_theory)

    links = (scaled_logistic_link(3.0),)
    mv_base = ExperimentConfig(model=_model(5, 2.0, links),
                               estimator="majority", n=20_000, trials=300)
    mv = scaling_study(mv_base, [1, 16])
    drop = mv.rows[0]["empirical_multiplier"] / mv.rows[1]["empirical_multiplier"]

    # the slope bar sits well outside test_04's 1/m band of -1 +/- 0.15
    ml_ok = (theory_floor > 0.05 and max(rel) <= 0.25 and ml.slope >= -0.75
             and floor >= 0.5 * theory_floor)
    mv_ok = abs(drop / 4.0 - 1.0) <= 0.30
    _report(6, "misspecification contrast (m-free floor vs 4x drop)",
            ml_ok and mv_ok,
            "multilabel m=2/16/64 multiplier "
            + "/".join(f"{e:.3f}" for e in ml_emp)
            + f" (max rel err {max(rel):.3f}), slope {ml.slope:.2f}, "
            f"floor {floor:.3f} (theory {theory_floor:.3f}); "
            f"majority drop {drop:.2f} (want 4 +/- 30%)")
    assert mv_ok, f"majority-vote drop {drop:.2f} outside 4 +/- 30%"
    assert theory_floor > 0.05, (
        f"theory floor {theory_floor:.4f}: the average true link is "
        "representable by the model, so there is no floor to check")
    assert max(rel) <= 0.25, (
        f"multilabel multiplier off theory by {max(rel):.3f} > 0.25")
    assert ml.slope >= -0.75, (
        f"multilabel slope {ml.slope:.2f} < -0.75: the multiplier decays "
        "like 1/m instead of levelling off at a floor")
    assert floor >= 0.5 * theory_floor, (
        f"multilabel floor {floor:.4f} below half of theory's "
        f"{theory_floor:.4f}: the multiplier does not level off")


def test_07_semiparametric_pipeline_efficiency():
    model = _model(3, 1.0, (LR,) * 5)
    config = ExperimentConfig(model=model, estimator="semiparam", n=40_000,
                              trials=200, split_fraction=0.1)
    summary = run_experiment(config)
    emp = empirical_multiplier(summary, model)
    theory = summary.theory.variance_multiplier
    rel = abs(emp / theory - 1.0)

    ds = sample_dataset(model, 40_000, seed=123)
    sp = semiparametric_fit(ds, split_fraction=0.1)
    assert sp.stage1_index.size == 4000
    link_err = max(_link_l2(link, LR) for link in sp.links)

    ok = rel <= 0.35 and link_err <= 0.05
    _report(7, "two-stage semiparametric efficiency", ok,
            f"multiplier rel err {rel:.3f}, link L2 err {link_err:.4f}")
    assert rel <= 0.35
    assert link_err <= 0.05


def test_08_crowdsourcing_plugin_multiplier():
    alphas = (0.5, 1.0, 2.0)
    model = _model(3, 1.0, tuple(scaled_logistic_link(a) for a in alphas))
    config = ExperimentConfig(model=model, estimator="crowd", n=40_000,
                              trials=200, split_fraction=0.1)
    summary = run_experiment(config)
    emp = empirical_multiplier(summary, model)

    engine = ZExpectationEngine(dist=model.covariates)
    total = sum(engine.expect(
        lambda z, a=a: link_eval(LR, a * z) * (1.0 - link_eval(LR, a * z)))
        for a in alphas)
    target = 1.0 / total
    rel = abs(emp / target - 1.0)
    ok = rel <= 0.35
    _report(8, "crowdsourcing plug-in covariance", ok,
            f"empirical {emp:.3f} vs target {target:.3f}, rel err {rel:.3f}")
    assert rel <= 0.35


def test_09_limit_lemma_numerics():
    logistic_bump = lambda z: link_derivative(LR, z)
    gauss_bump = lambda z: np.exp(-0.5 * z * z)
    u = np.array([1.0, 0, 0])
    tz_cases = [
        (1.0, isotropic_gaussian(3), logistic_bump),
        (0.5, beta_regular(3, 0.5, u), gauss_bump),
        (2.0, beta_regular(3, 2.0, u), gauss_bump),
    ]
    tz_errs = {}
    for beta, dist, f in tz_cases:
        out = largem_tz_limit_check(dist, f, 200.0)
        tz_errs[beta] = abs(out["lhs"] / out["rhs"] - 1.0)

    rho_errs = []
    for m in (256, 1024, 4096):
        out = largem_rho_limit_check(isotropic_gaussian(3),
                                     lambda z: np.ones_like(z), 1.0, LR, m=m)
        rho_errs.append(abs(out["lhs"] / out["rhs"] - 1.0))

    tz_ok = max(tz_errs.values()) <= 0.01
    rho_ok = rho_errs[-1] <= 0.03 and rho_errs[0] > rho_errs[1] > rho_errs[2]
    ok = tz_ok and rho_ok
    _report(9, "tail-integral limit lemmas", ok,
            "margin-scaling errs "
            + ", ".join(f"b={b}: {e:.4f}" for b, e in tz_errs.items())
            + "; majority-tail errs "
            + ", ".join(f"{e:.5f}" for e in rho_errs))
    assert tz_ok
    assert rho_ok


def test_10_pseudo_inverse_of_orthogonal_sums():
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(100):
        d = int(rng.integers(2, 9))
        q, _ = np.linalg.qr(rng.standard_normal((d, d)))
        r1 = int(rng.integers(1, d))
        a_eigs = rng.uniform(0.5, 2.0, size=r1)
        b_eigs = rng.uniform(0.5, 2.0, size=d - r1)
        A = q[:, :r1] @ np.diag(a_eigs) @ q[:, :r1].T
        B = q[:, r1:] @ np.diag(b_eigs) @ q[:, r1:].T
        err = float(np.max(np.abs(
            pseudo_inverse_decomp(A, B) - np.linalg.inv(A + B))))
        worst = max(worst, err)
    ok = worst <= 1e-10
    _report(10, "pseudo-inverse of orthogonal-range sums", ok,
            f"max err {worst:.2e}")
    assert worst <= 1e-10


def test_11_byte_identical_reruns():
    with tempfile.TemporaryDirectory() as tmp:
        cfg_path = os.path.join(tmp, "config.txt")
        with open(cfg_path, "w") as fh:
            fh.write("estimator=multilabel\nn=2000\ntrials=20\nseed=5\n"
                     "d=3\nt_star=2.0\n"
                     f"output={os.path.join(tmp, 'a.csv')}\n")
        assert cli_main(["simulate", cfg_path]) == 0
        assert cli_main(["simulate", cfg_path, "--output",
                         os.path.join(tmp, "b.csv")]) == 0
        with open(os.path.join(tmp, "a.csv"), "rb") as fh:
            a = fh.read()
        with open(os.path.join(tmp, "b.csv"), "rb") as fh:
            b = fh.read()
    ok = a == b and len(a) > 0
    _report(11, "seeded reruns are byte-identical", ok, f"{len(a)} bytes")
    assert ok
