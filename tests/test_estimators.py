import dataclasses
import warnings

import numpy as np
import pytest

from labelsim import (
    DimensionMismatch,
    LabelCounts,
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
from labelsim.estimators import (
    WARM_MIN_ROWS,
    WARM_STRIDE,
    NonConvergence,
    _CountKernel,
    _hessian,
    _reduce,
)


def _random_dataset(rng, n=40, d=3, m=4):
    X = rng.standard_normal((n, d))
    Y = rng.choice([-1, 1], size=(n, m))
    return MultiLabelDataset(X=X, Y=Y)


def _votes(ds, seed):
    """ds reduced to its n x 1 majority-vote column, the majority-vote
    estimator's data."""
    return MultiLabelDataset(X=ds.X, Y=majority_vote_matrix(ds.Y, seed))


def _all_fits(ds):
    """(spec, data) for every estimator on ds: multi-label, majority vote
    (the pooled loss on the vote column), semiparametric and crowd."""
    grid = np.linspace(-3, 3, 13)
    vals = np.clip(0.5 + 0.4 * np.tanh(grid), 0.0, 1.0)
    tab = tabulated_link(grid, vals)
    return [
        (LossSpec(), ds),
        (LossSpec(model_link=scaled_logistic_link(2.0)), ds),
        (LossSpec(), _votes(ds, 3)),
        (LossSpec(links=tuple([tab, logistic_link(), scaled_logistic_link(0.5),
                               logistic_link()][:ds.m])), ds),
        (LossSpec(links=tuple(scaled_logistic_link(a)
                              for a in np.linspace(0.5, 2.0, ds.m))), ds),
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
    if spec.links is None:
        k, M = (Y == 1).sum(axis=1).astype(float), float(m)
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
    votes = _votes(ds, 3)
    model_links = _model_links()
    cases = [(LossSpec(model_link=link), data)
             for data in (ds, votes) for link in model_links]
    cases += [(LossSpec(links=model_links), ds),
              (LossSpec(links=tuple(scaled_logistic_link(a)
                                    for a in (0.1, 1.0, 50.0, 2.0))), ds)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for spec, data in cases:
            got = _CountKernel(_reduce(spec, data.Y))(u)
            want = _reference_kernel(spec, data.Y, u)
            for g, w in zip(got, want):
                g, w = np.asarray(g), np.asarray(w)
                assert g.shape == w.shape
                assert np.all(np.abs(g - w) <= np.maximum(1e-13 * np.abs(w), 1e-15)), spec


def test_count_kernel_groups_match_per_labeler_formulas():
    # per-labeler specs whose links fall in groups: a repeated non-symmetric
    # link (its own count per group), two symmetric tables on one grid (one
    # summed table) and symmetric tables on two grids (one table each)
    rng = np.random.default_rng(13)
    u = np.concatenate([[800.0, -800.0, 0.0, -0.0, 30.0, -30.0, 1e-3, -1e-3],
                        5.0 * rng.standard_normal(56)])
    n, m = u.size, 5
    Y = rng.choice([-1, 1], size=(n, m)).astype(np.int8)
    Y[:3] = 1
    Y[3:5] = -1
    ds = MultiLabelDataset(X=np.zeros((n, 1)), Y=Y)
    skewed = _model_links()[3]
    grid, wide = np.linspace(-3, 3, 13), np.linspace(-4, 4, 17)
    # steeper below 0 than above
    mirrored = tabulated_link(grid, 0.5 + 0.45 * np.tanh(grid) * np.where(grid > 0, 0.5, 1.0))
    # symmetric to round-off: tanh and arctan are odd, the grids mirror images
    a = tabulated_link(grid, 0.5 + 0.4 * np.tanh(grid))
    b = tabulated_link(grid, 0.5 + 0.3 * np.arctan(grid) / (np.pi / 2))
    c = tabulated_link(wide, 0.5 + 0.45 * np.tanh(0.5 * wide))
    assert a.symmetric and b.symmetric and c.symmetric
    cases = [((skewed, logistic_link(), mirrored, skewed, scaled_logistic_link(0.5)), 2, 2),
             ((a, b, a, logistic_link(), b), 2, 0),
             ((a, c, skewed, c, scaled_logistic_link(50.0)), 3, 1)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for links, one_sided, two_sided in cases:
            spec = LossSpec(links=links)
            kernel = _CountKernel(_reduce(spec, ds.Y))
            assert (len(kernel.one_sided), len(kernel.two_sided)) == (one_sided, two_sided)
            got = kernel(u)
            want = _reference_kernel(spec, Y, u)
            for g, w in zip(got, want):
                g, w = np.asarray(g), np.asarray(w)
                assert g.shape == w.shape
                assert np.all(np.abs(g - w) <= np.maximum(1e-13 * np.abs(w), 1e-15)), links
            # separated iff every label has the sign of its row's margin
            assert not kernel.separated(u)
            unanimous = _CountKernel(_reduce(spec, Y[:5]))
            assert unanimous.separated(np.array([1.0, 2.0, 3.0, -1.0, -2.0]))
            assert not unanimous.separated(np.array([1.0, 2.0, 0.0, -1.0, -2.0]))


def test_nearly_symmetric_table_stays_two_sided():
    # symmetric only to 1e-9: not symmetric, so the kernel evaluates it at +-u
    grid = np.linspace(-3, 3, 13)
    values = 0.5 + 0.4 * np.tanh(grid)
    values[-1] += 1e-9
    near = tabulated_link(grid, values)
    assert not near.symmetric
    ds = MultiLabelDataset(X=np.zeros((4, 1)), Y=np.ones((4, 2)))
    kernel = _CountKernel(_reduce(LossSpec(links=(near, near)), ds.Y))
    assert (len(kernel.one_sided), len(kernel.two_sided)) == (0, 1)


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
    for spec, data in _all_fits(ds):
        for _ in range(5):
            theta = rng.standard_normal(ds.d)
            g = loss_gradient(spec, theta, data)
            for k in range(ds.d):
                e = np.zeros(ds.d)
                e[k] = h
                fd = (loss_value(spec, theta + e, data)
                      - loss_value(spec, theta - e, data)) / (2 * h)
                assert g[k] == pytest.approx(fd, abs=1e-6)


def test_hessian_matches_finite_differences():
    rng = np.random.default_rng(3)
    ds = _random_dataset(rng)
    h = 1e-5
    for spec, data in _all_fits(ds):
        theta = rng.standard_normal(ds.d) * 0.5
        H = loss_hessian(spec, theta, data)
        assert np.allclose(H, H.T, atol=1e-12)
        for k in range(ds.d):
            e = np.zeros(ds.d)
            e[k] = h
            fd = (loss_gradient(spec, theta + e, data)
                  - loss_gradient(spec, theta - e, data)) / (2 * h)
            assert np.max(np.abs(H[:, k] - fd)) < 1e-4


def test_hessian_helper_matches_broadcast_form_to_roundoff():
    # (XT * w) @ XT.T sums along the long axis, in another order than the
    # broadcast form, so the two agree to round-off, not bit for bit
    rng = np.random.default_rng(6)
    for n, d in ((20000, 5), (36000, 3), (1, 4), (300, 1)):
        X = rng.standard_normal((n, d))
        w = rng.random(n)
        got = _hessian(np.ascontiguousarray(X.T), w)
        want = X.T @ (w[:, None] * X)
        tol = 64 * np.finfo(float).eps * np.max(np.abs(want))
        assert np.max(np.abs(got - want)) <= tol, (n, d)


def test_crowd_scaled_all_ones_equals_multilabel_logistic():
    rng = np.random.default_rng(4)
    ds = _random_dataset(rng, m=3)
    theta = rng.standard_normal(ds.d)
    crowd = LossSpec(links=(scaled_logistic_link(1.0),) * 3)
    multi = LossSpec()
    assert np.allclose(loss_gradient(crowd, theta, ds),
                       loss_gradient(multi, theta, ds), atol=1e-12)
    assert loss_value(crowd, theta, ds) == pytest.approx(
        loss_value(multi, theta, ds), abs=1e-12)


def test_dimension_checks():
    rng = np.random.default_rng(5)
    ds = _random_dataset(rng, m=3)
    with pytest.raises(DimensionMismatch):
        loss_value(LossSpec(), np.zeros(ds.d + 1), ds)
    with pytest.raises(DimensionMismatch):
        loss_value(LossSpec(links=(logistic_link(),)), np.zeros(ds.d), ds)
    with pytest.raises(DimensionMismatch):
        loss_value(LossSpec(links=(scaled_logistic_link(1.0),) * 2), np.zeros(ds.d), ds)
    with pytest.raises(ValueError):
        LossSpec(links=())
    with pytest.raises(ValueError):
        LossSpec(links=tuple(scaled_logistic_link(a) for a in (1.0, -1.0)))


def test_fit_recovers_direction():
    lr = logistic_link()
    model = ModelSpec(theta_star=np.array([1.5, 0.0, 0.0]), links=(lr,) * 3,
                      covariates=isotropic_gaussian(3))
    ds = sample_dataset(model, 20_000, seed=6)
    res = fit(LossSpec(), ds)
    assert res.converged and not res.separable
    assert res.final_gradient_norm <= 1e-10
    assert np.linalg.norm(res.u_hat - model.u_star) < 0.05
    assert np.linalg.norm(res.theta_hat) == pytest.approx(1.5, abs=0.1)


def test_fit_does_not_stall_at_loss_roundoff():
    # On this draw the last Newton step decreases the loss by less than its
    # round-off, from the warm start and from zeros alike; the decrement
    # rule takes the full step and stops. Without it, the Armijo search
    # alone accepts near-zero steps (with one BLAS thread, until max_iters);
    # either way the fit would not stop on "decrement".
    lr = logistic_link()
    model = ModelSpec(theta_star=np.array([2.0, 0.0, 0.0, 0.0, 0.0]),
                      links=(lr,) * 16, covariates=isotropic_gaussian(5))
    ds = sample_dataset(model, 20_000, seed=0, trial=3)
    for theta0 in (None, np.zeros(5)):
        res = fit(LossSpec(), ds, theta0=theta0)
        assert res.converged and not res.separable
        assert res.stop_reason == "decrement"
        assert res.iterations <= 30
        assert res.final_gradient_norm <= 1e-10


def test_fit_capped_above_grad_tol_raises():
    # one stopping rule: a fit cut off by max_iters has not converged, even
    # with ||grad|| within 1e-8
    rng = np.random.default_rng(14)
    ds = _random_dataset(rng, n=400)
    spec = LossSpec()
    theta = fit(spec, ds).theta_hat
    H = loss_hessian(spec, theta, ds)
    start = theta + np.linalg.solve(H, np.full(ds.d, 2e-9))
    assert 1e-10 < np.linalg.norm(loss_gradient(spec, start, ds)) <= 1e-8
    with pytest.raises(NonConvergence, match="max_iters"):
        fit(spec, ds, SolverOptions(max_iters=0), theta0=start)
    res = fit(spec, ds, SolverOptions(max_iters=5), theta0=start)
    assert res.converged and res.stop_reason in ("grad_tol", "decrement")


def test_zero_hessian_start_takes_jittered_step():
    # a link flat on (-1, 1) has sigma'(0) = 0, so from theta = 0 the
    # Hessian is exactly zero and only its 1e-14 jitter makes the Newton
    # system solvable; the fits from zero, from the warm start and from
    # elsewhere reach one optimum
    flat = tabulated_link(np.linspace(-2.0, 2.0, 9),
                          [0, .1, .3, .5, .5, .5, .7, .9, 1])
    model = ModelSpec(theta_star=np.array([1.5, 0.0]), links=(flat,) * 4,
                      covariates=isotropic_gaussian(2))
    ds = sample_dataset(model, 3000, seed=3)
    spec = LossSpec(model_link=flat)
    assert not np.any(loss_hessian(spec, np.zeros(2), ds))
    fits = [fit(spec, ds, theta0=start)
            for start in (None, np.zeros(2), np.array([0.3, 0.1]))]
    for res in fits:
        assert res.converged and not res.separable
        assert res.stop_reason == "grad_tol"
        assert np.allclose(res.theta_hat, fits[0].theta_hat, rtol=0, atol=1e-12)
    assert np.allclose(fits[0].theta_hat, [1.55438662, -0.01490277], atol=1e-8)


def _warm_dataset(seed, n, m=4):
    lr = logistic_link()
    model = ModelSpec(theta_star=np.array([2.0, 0.0, 0.0]), links=(lr,) * m,
                      covariates=isotropic_gaussian(3))
    return sample_dataset(model, n, seed=seed)


def test_warm_start_cuts_full_data_iterations():
    ds = _warm_dataset(16, 20_000, m=16)
    spec = LossSpec()
    for data in (ds, _votes(ds, 16)):
        warm = fit(spec, data)
        cold = fit(spec, data, theta0=np.zeros(ds.d))
        assert warm.warm_iterations > 0 and cold.warm_iterations == 0
        assert warm.iterations <= cold.iterations - 2, data.m
        assert warm.final_gradient_norm <= 1e-10
        assert np.max(np.abs(warm.u_hat - cold.u_hat)) <= 1e-9


def test_warm_start_skipped_with_theta0_or_few_rows():
    # below the row floor, or from a given start, the fit is the one loop
    # from that start, bit for bit
    spec = LossSpec()
    small = _warm_dataset(17, WARM_MIN_ROWS - 1)
    res = fit(spec, small)
    ref = fit(spec, small, theta0=np.zeros(small.d))
    assert res.warm_iterations == 0
    assert np.array_equal(res.theta_hat, ref.theta_hat)
    assert res.iterations == ref.iterations
    large = _warm_dataset(17, WARM_MIN_ROWS)
    assert fit(spec, large).warm_iterations > 0
    assert fit(spec, large, theta0=np.ones(large.d)).warm_iterations == 0


def test_separable_subsample_falls_back_to_zeros():
    # every 16th row is labelled without noise, so the subsample separates
    # and its fit diverges; the full data does not, and its fit starts
    # from zeros
    ds = _warm_dataset(18, 4 * WARM_MIN_ROWS, m=1)
    Y = ds.Y.copy()
    Y[::WARM_STRIDE, 0] = np.where(ds.X[::WARM_STRIDE, 0] >= 0, 1, -1)
    ds = MultiLabelDataset(X=ds.X, Y=Y)
    spec = LossSpec()
    res = fit(spec, ds)
    ref = fit(spec, ds, theta0=np.zeros(ds.d))
    assert res.warm_iterations > 0 and res.converged
    assert np.array_equal(res.theta_hat, ref.theta_hat)
    assert res.iterations == ref.iterations


def test_fit_gradient_is_stationary_all_modes():
    lr = logistic_link()
    model = ModelSpec(theta_star=np.array([1.0, 0.5]), links=(lr,) * 3,
                      covariates=isotropic_gaussian(2))
    ds = sample_dataset(model, 2000, seed=8)
    for spec, data in _all_fits(ds):
        res = fit(spec, data)
        g = loss_gradient(spec, res.theta_hat, data)
        assert np.linalg.norm(g) <= 1e-9
        # the fit's own norm is that of the public gradient, bit for bit
        assert res.final_gradient_norm == np.linalg.norm(g)


def test_fit_is_bit_identical_on_c_and_f_ordered_covariates():
    # fits read X^T as one C-contiguous array (a view of column-major X, a
    # copy of row-major X), so the memory order of X cannot change a bit of
    # the result
    model = ModelSpec(theta_star=np.array([1.0, -0.5, 0.25]),
                      links=(logistic_link(),) * 4,
                      covariates=isotropic_gaussian(3))
    for n in (300, 2 * WARM_MIN_ROWS):
        ds = sample_dataset(model, n, seed=21)
        c_ds = MultiLabelDataset(X=np.ascontiguousarray(ds.X), Y=ds.Y)
        f_ds = MultiLabelDataset(X=np.asfortranarray(ds.X), Y=ds.Y)
        assert c_ds.X.flags.c_contiguous and not c_ds.X.flags.f_contiguous
        assert f_ds.X.flags.f_contiguous and not f_ds.X.flags.c_contiguous
        for (spec, c_data), (_, f_data) in zip(_all_fits(c_ds), _all_fits(f_ds)):
            c_res, f_res = fit(spec, c_data), fit(spec, f_data)
            assert c_res.theta_hat.tobytes() == f_res.theta_hat.tobytes(), spec
            assert dataclasses.replace(c_res, theta_hat=None) == \
                dataclasses.replace(f_res, theta_hat=None), spec


def test_separable_detection():
    # noiseless labels from a steep link are separable with small n
    X = np.random.default_rng(10).standard_normal((40, 2))
    Y = np.sign(X @ np.array([1.0, 0.0]))[:, None].astype(int)
    Y[Y == 0] = 1
    ds = MultiLabelDataset(X=X, Y=Y)
    res = fit(LossSpec(), ds,
              SolverOptions(max_iters=500))
    assert res.separable
    assert not res.converged


def test_empty_dataset_rejected():
    with pytest.raises(ValueError):
        fit(LossSpec(),
            MultiLabelDataset(X=np.zeros((0, 2)), Y=np.zeros((0, 1))))


def test_reduce_counts_equal_boolean_row_sums():
    # the counts of one product per row block (links._count_positive) are
    # row sums of the labels, exactly, in either memory order and across
    # block boundaries (n = 2000 spans several blocks from m = 33 on): the
    # first symmetric group holds the count over every symmetric group's
    # columns and the other symmetric groups hold None; a two-sided group
    # holds its own columns' count
    rng = np.random.default_rng(29)
    n = 2000
    three = (logistic_link(), _model_links()[3], scaled_logistic_link(0.5))
    for m in range(1, 71):
        Y = rng.choice(np.array([-1, 1], dtype=np.int8), size=(n, m))
        links = (three * m)[:m]
        group = np.arange(m) % 3
        want_k = [(Y[:, group != 1] == 1).sum(axis=1).tolist(),
                  (Y[:, group == 1] == 1).sum(axis=1).tolist(), None]
        want = [(M, want_k[g]) for g, M in enumerate(np.bincount(group))]
        for labels in (Y, np.asfortranarray(Y)):
            pooled = _reduce(LossSpec(), labels)
            assert [(M, k.tolist()) for _, M, k in pooled] == \
                [(m, (Y == 1).sum(axis=1).tolist())], m
            per_labeler = _reduce(LossSpec(links=links), labels)
            assert [(M, None if k is None else k.tolist())
                    for _, M, k in per_labeler] == want, m


def test_fit_on_label_counts_equals_fit_on_labels():
    # a pooled loss reads only each row's +1 count, so a fit on LabelCounts
    # is the fit on the labels, bit for bit, with and without a warm start
    model = ModelSpec(theta_star=np.array([1.5, -0.5, 0.25]),
                      links=(logistic_link(),) * 5,
                      covariates=isotropic_gaussian(3))
    for n in (300, 2 * WARM_MIN_ROWS + 5):
        ds = sample_dataset(model, n, seed=8)
        counts = LabelCounts(X=ds.X, counts=(ds.Y == 1).sum(axis=1), m=ds.m)
        for spec in (LossSpec(), LossSpec(model_link=scaled_logistic_link(2.0))):
            want, got = fit(spec, ds), fit(spec, counts)
            assert got.theta_hat.tobytes() == want.theta_hat.tobytes()
            assert (got.iterations, got.warm_iterations, got.stop_reason) == \
                (want.iterations, want.warm_iterations, want.stop_reason)
            assert got.warm_iterations > 0 if n > WARM_MIN_ROWS else got.warm_iterations == 0
            theta = np.array([0.3, 0.2, -0.1])
            assert loss_value(spec, theta, counts) == loss_value(spec, theta, ds)
        # a per-labeler loss needs each labeler's labels
        with pytest.raises(ValueError, match="per-labeler"):
            fit(LossSpec(links=(logistic_link(),) * 5), counts)
    X = np.zeros((3, 2))
    for bad in ([0, 1, 4], [0, -1, 2], [0, 1.5, 2]):
        with pytest.raises(ValueError):
            LabelCounts(X=X, counts=bad, m=3)
    with pytest.raises(ValueError):
        LabelCounts(X=X, counts=[0, 1], m=3)
