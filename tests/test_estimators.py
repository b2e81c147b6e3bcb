import warnings

import numpy as np
import pytest

from labelsim import (
    DimensionMismatch,
    LossMode,
    LossSpec,
    ModelSpec,
    MultiLabelDataset,
    SolverOptions,
    fit,
    isotropic_gaussian,
    link_antiderivative,
    link_derivative,
    link_eval,
    link_loss,
    logistic_link,
    loss_gradient,
    loss_hessian,
    loss_value,
    majority_vote_matrix,
    sample_dataset,
    scaled_logistic_link,
    tabulated_link,
)
from labelsim.estimators import _hessian, _reduce


def _random_dataset(rng, n=40, d=3, m=4):
    X = rng.standard_normal((n, d))
    Y = rng.choice([-1, 1], size=(n, m))
    return MultiLabelDataset(X=X, Y=Y)


def _all_specs(m):
    grid = np.linspace(-3, 3, 13)
    vals = np.clip(0.5 + 0.4 * np.tanh(grid), 0.0, 1.0)
    tab = tabulated_link(grid, vals)
    return [
        LossSpec(mode=LossMode.MULTI_LABEL),
        LossSpec(mode=LossMode.MULTI_LABEL, model_link=scaled_logistic_link(2.0)),
        LossSpec(mode=LossMode.MAJORITY_VOTE, tie_seed=3),
        LossSpec(mode=LossMode.PER_LABELER,
                 links=tuple([tab, logistic_link(), scaled_logistic_link(0.5),
                              logistic_link()][:m])),
        LossSpec(mode=LossMode.CROWD_SCALED,
                 links=tuple(scaled_logistic_link(a) for a in np.linspace(0.5, 2.0, m))),
    ]


def _model_links():
    grid = np.linspace(-3, 3, 13)
    # steeper above 0 than below: not symmetric about 1/2
    skewed = tabulated_link(grid, 0.5 + 0.45 * np.tanh(grid) * np.where(grid > 0, 1.0, 0.5))
    assert not skewed.symmetric
    return (logistic_link(), scaled_logistic_link(0.1), scaled_logistic_link(50.0), skewed)


def _reference_kernel(spec, Y, u):
    """Loss, gradient coefficients and Hessian weights from the separate
    link_antiderivative / link_eval / link_derivative formulas."""
    n, m = Y.shape
    if spec.mode in (LossMode.MULTI_LABEL, LossMode.MAJORITY_VOTE):
        if spec.mode is LossMode.MULTI_LABEL:
            k, M = (Y == 1).sum(axis=1).astype(float), float(m)
        else:
            ybar = majority_vote_matrix(Y, spec.tie_seed, spec.tie_trial)
            k, M = (ybar + 1.0) / 2.0, 1.0
        link, scale = spec.model_link, n * M
        loss = (k * link_antiderivative(link, -u)
                + (M - k) * link_antiderivative(link, u)).sum() / scale
        coef = ((M - k) * link_eval(link, u) - k * link_eval(link, -u)) / scale
        w = (k * link_derivative(link, -u) + (M - k) * link_derivative(link, u)) / scale
        return loss, coef, w
    loss, coef, w = 0.0, np.zeros(n), np.zeros(n)
    for j, link in enumerate(spec.links):
        t = -Y[:, j] * u
        loss += link_antiderivative(link, t).sum()
        coef -= Y[:, j] * link_eval(link, t)
        w += link_derivative(link, t)
    return loss / (n * m), coef / (n * m), w / (n * m)


def test_kernel_matches_separate_link_formulas():
    # the one-call kernels against the three-call formulas, at margins that
    # include +-800 (where exp(|t|) overflows) and both signed zeros; sigma'
    # as s (1 - s) loses its relative accuracy for |t| >~ 20, hence the
    # absolute floor
    rng = np.random.default_rng(12)
    u = np.concatenate([[800.0, -800.0, 0.0, -0.0, 30.0, -30.0, 1e-3, -1e-3],
                        5.0 * rng.standard_normal(56)])
    n, m = u.size, 4
    Y = rng.choice([-1, 1], size=(n, m)).astype(np.int8)
    Y[:3] = 1  # rows whose labels all agree, so both tails of k appear
    ds = MultiLabelDataset(X=np.zeros((n, 1)), Y=Y)
    model_links = _model_links()
    specs = [LossSpec(mode=LossMode.MULTI_LABEL, model_link=link) for link in model_links]
    specs += [LossSpec(mode=LossMode.MAJORITY_VOTE, model_link=link, tie_seed=3)
              for link in model_links]
    specs += [LossSpec(mode=LossMode.PER_LABELER, links=model_links),
              LossSpec(mode=LossMode.CROWD_SCALED,
                       links=tuple(scaled_logistic_link(a) for a in (0.1, 1.0, 50.0, 2.0)))]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for spec in specs:
            got = _reduce(spec, ds)(u)
            want = _reference_kernel(spec, Y, u)
            for g, w in zip(got, want):
                g, w = np.asarray(g), np.asarray(w)
                assert g.shape == w.shape
                assert np.all(np.abs(g - w) <= np.maximum(1e-13 * np.abs(w), 1e-15)), spec


def test_link_loss_logistic_is_shifted_log_loss():
    lr = logistic_link()
    theta, x = np.array([1.0, -2.0]), np.array([0.3, 0.4])
    margin = theta @ x
    for y in (-1, 1):
        expected = np.log1p(np.exp(-y * margin)) - np.log(2.0)
        assert link_loss(lr, theta, x, y) == pytest.approx(expected, abs=1e-12)


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(2)
    ds = _random_dataset(rng)
    h = 1e-6
    for spec in _all_specs(ds.m):
        for _ in range(5):
            theta = rng.standard_normal(ds.d)
            g = loss_gradient(spec, theta, ds)
            for k in range(ds.d):
                e = np.zeros(ds.d)
                e[k] = h
                fd = (loss_value(spec, theta + e, ds)
                      - loss_value(spec, theta - e, ds)) / (2 * h)
                assert g[k] == pytest.approx(fd, abs=1e-6)


def test_hessian_matches_finite_differences():
    rng = np.random.default_rng(3)
    ds = _random_dataset(rng)
    h = 1e-5
    for spec in _all_specs(ds.m):
        theta = rng.standard_normal(ds.d) * 0.5
        H = loss_hessian(spec, theta, ds)
        assert np.allclose(H, H.T, atol=1e-12)
        for k in range(ds.d):
            e = np.zeros(ds.d)
            e[k] = h
            fd = (loss_gradient(spec, theta + e, ds)
                  - loss_gradient(spec, theta - e, ds)) / (2 * h)
            assert np.max(np.abs(H[:, k] - fd)) < 1e-4


def test_hessian_helper_is_bit_identical_to_broadcast_form():
    rng = np.random.default_rng(6)
    for n, d in ((20000, 5), (36000, 3), (1, 4), (300, 1)):
        X = rng.standard_normal((n, d))
        w = rng.random(n)
        got = _hessian(X, np.ascontiguousarray(X.T), w)
        want = X.T @ (w[:, None] * X)
        assert np.array_equal(got.view(np.int64), want.view(np.int64)), (n, d)


def test_crowd_scaled_all_ones_equals_multilabel_logistic():
    rng = np.random.default_rng(4)
    ds = _random_dataset(rng, m=3)
    theta = rng.standard_normal(ds.d)
    crowd = LossSpec(mode=LossMode.CROWD_SCALED, links=(scaled_logistic_link(1.0),) * 3)
    multi = LossSpec(mode=LossMode.MULTI_LABEL)
    assert np.allclose(loss_gradient(crowd, theta, ds),
                       loss_gradient(multi, theta, ds), atol=1e-12)
    assert loss_value(crowd, theta, ds) == pytest.approx(
        loss_value(multi, theta, ds), abs=1e-12)


def test_dimension_checks():
    rng = np.random.default_rng(5)
    ds = _random_dataset(rng, m=3)
    with pytest.raises(DimensionMismatch):
        loss_value(LossSpec(mode=LossMode.MULTI_LABEL), np.zeros(ds.d + 1), ds)
    with pytest.raises(DimensionMismatch):
        loss_value(LossSpec(mode=LossMode.PER_LABELER,
                            links=(logistic_link(),)), np.zeros(ds.d), ds)
    with pytest.raises(DimensionMismatch):
        loss_value(LossSpec(mode=LossMode.CROWD_SCALED,
                            links=(scaled_logistic_link(1.0),) * 2), np.zeros(ds.d), ds)
    with pytest.raises(ValueError):
        LossSpec(mode=LossMode.PER_LABELER)
    with pytest.raises(ValueError):
        LossSpec(mode=LossMode.CROWD_SCALED)
    with pytest.raises(ValueError):
        LossSpec(mode=LossMode.CROWD_SCALED,
                 links=tuple(scaled_logistic_link(a) for a in (1.0, -1.0)))


def test_fit_recovers_direction():
    lr = logistic_link()
    model = ModelSpec(theta_star=np.array([1.5, 0.0, 0.0]), links=(lr,) * 3,
                      covariates=isotropic_gaussian(3))
    ds = sample_dataset(model, 20_000, seed=6)
    res = fit(LossSpec(mode=LossMode.MULTI_LABEL), ds)
    assert res.converged and not res.separable
    assert res.final_gradient_norm <= 1e-10
    assert np.linalg.norm(res.u_hat - model.u_star) < 0.05
    assert np.linalg.norm(res.theta_hat) == pytest.approx(1.5, abs=0.1)


def test_fit_does_not_stall_at_loss_roundoff():
    # On this draw the last Newton steps decrease the loss by less than its
    # round-off, so an Armijo search alone accepts near-zero steps without
    # ever reaching grad_tol; the decrement rule takes the full step instead.
    lr = logistic_link()
    model = ModelSpec(theta_star=np.array([2.0, 0.0, 0.0, 0.0, 0.0]),
                      links=(lr,) * 16, covariates=isotropic_gaussian(5))
    ds = sample_dataset(model, 20_000, seed=0, trial=15)
    res = fit(LossSpec(mode=LossMode.MULTI_LABEL), ds)
    assert res.converged and not res.separable
    assert res.iterations <= 30
    assert res.final_gradient_norm <= 1e-10


def test_fit_gradient_is_stationary_all_modes():
    lr = logistic_link()
    model = ModelSpec(theta_star=np.array([1.0, 0.5]), links=(lr,) * 3,
                      covariates=isotropic_gaussian(2))
    ds = sample_dataset(model, 2000, seed=8)
    for spec in _all_specs(ds.m):
        res = fit(spec, ds)
        g = loss_gradient(spec, res.theta_hat, ds)
        assert np.linalg.norm(g) <= 1e-9


def test_separable_detection():
    # noiseless labels from a steep link are separable with small n
    X = np.random.default_rng(10).standard_normal((40, 2))
    Y = np.sign(X @ np.array([1.0, 0.0]))[:, None].astype(int)
    Y[Y == 0] = 1
    ds = MultiLabelDataset(X=X, Y=Y)
    res = fit(LossSpec(mode=LossMode.MULTI_LABEL), ds,
              SolverOptions(max_iters=500))
    assert res.separable
    assert not res.converged


def test_ridge_keeps_separable_problem_finite():
    X = np.random.default_rng(11).standard_normal((40, 2))
    Y = np.sign(X @ np.array([1.0, 0.0]))[:, None].astype(int)
    Y[Y == 0] = 1
    ds = MultiLabelDataset(X=X, Y=Y)
    res = fit(LossSpec(mode=LossMode.MULTI_LABEL), ds,
              SolverOptions(ridge=1e-3, max_iters=500))
    assert not res.separable
    assert res.final_gradient_norm <= 1e-10


def test_empty_dataset_rejected():
    with pytest.raises(ValueError):
        fit(LossSpec(mode=LossMode.MULTI_LABEL),
            MultiLabelDataset(X=np.zeros((0, 2)), Y=np.zeros((0, 1))))
