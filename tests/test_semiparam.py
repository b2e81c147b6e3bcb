import numpy as np
import pytest
from scipy import optimize, stats

from labelsim import (
    ALPHA_FLOOR,
    IsotonicFitOptions,
    LossMode,
    LossSpec,
    ModelSpec,
    MultiLabelDataset,
    crowdsourced_fit,
    estimate_alpha,
    fit_links_with_diagnostics,
    isotropic_gaussian,
    link_eval,
    logistic_link,
    loss_gradient,
    sample_dataset,
    scaled_logistic_link,
    semiparametric_fit,
)
from labelsim.semiparam import FREE_MARGIN, _chain_fit

LR = logistic_link()


def _logistic_dataset(n, m, t_star=1.0, d=3, seed=0, alphas=None):
    links = (tuple(scaled_logistic_link(a) for a in alphas)
             if alphas is not None else (LR,) * m)
    theta = np.zeros(d)
    theta[0] = t_star
    model = ModelSpec(theta_star=theta, links=links,
                      covariates=isotropic_gaussian(d))
    return model, sample_dataset(model, n, seed=seed)


def _link_l2_error(link, true_link, scale=1.0):
    """Gaussian-weighted L2 distance between sigma_hat and z -> sigma*(scale z)."""
    z = np.linspace(-5, 5, 2001)
    w = stats.norm.pdf(z)
    diff = link_eval(link, z) - link_eval(true_link, scale * z)
    return float(np.sqrt(np.trapezoid(diff * diff * w, z)))


def _assert_feasible(link, opts):
    vals, grid = link.grid is not None and link.values, link.grid
    vals = np.asarray(link.values)
    delta = grid[1] - grid[0]
    assert np.all(np.diff(vals) >= -1e-12)
    assert np.all(np.diff(vals) <= opts.lipschitz * delta + 1e-10)
    assert np.all((vals >= 0) & (vals <= 1))
    center = grid.size // 2
    assert grid[center] == pytest.approx(0.0, abs=1e-12)
    assert vals[center] == 0.5
    if opts.enforce_symmetry:
        assert np.max(np.abs(vals + vals[::-1] - 1.0)) < 1e-8


@pytest.mark.parametrize("symmetric", [True, False])
def test_link_fit_per_labeler_equals_one_labeler_fits(symmetric):
    # the margins are binned once for all labelers; each link is still, bit
    # for bit, the fit of its column alone
    _, ds = _logistic_dataset(3000, 3, seed=14, alphas=(0.5, 1.0, 3.0))
    u = np.array([0.8, 0.6, 0.0])
    opts = IsotonicFitOptions(enforce_symmetry=symmetric)
    links, diag = fit_links_with_diagnostics(u, ds, opts)
    for j, link in enumerate(links):
        alone = MultiLabelDataset(X=ds.X, Y=ds.Y[:, j:j + 1])
        (want,), want_diag = fit_links_with_diagnostics(u, alone, opts)
        assert np.array_equal(link.grid, want.grid)
        assert np.array_equal(link.values.view(np.int64), want.values.view(np.int64))
        assert link.symmetric == want.symmetric == symmetric
        assert diag.iterations[j] == want_diag.iterations[0]


def test_fitted_links_satisfy_all_constraints():
    model, ds = _logistic_dataset(3000, 3, seed=1)
    opts = IsotonicFitOptions()
    links = fit_links_with_diagnostics(model.u_star, ds, opts)[0]
    assert len(links) == 3
    for link in links:
        _assert_feasible(link, opts)


def test_fitted_link_l2_error_small():
    # criterion-7-scale check: 4000 rows recover the logistic link to L2 0.05
    model, ds = _logistic_dataset(4000, 1, seed=2)
    link = fit_links_with_diagnostics(model.u_star, ds)[0][0]
    assert _link_l2_error(link, LR) <= 0.05


def test_degenerate_labeler_flagged():
    rng = np.random.default_rng(3)
    X = rng.standard_normal((200, 2))
    Y = np.column_stack([np.ones(200, dtype=int),
                         rng.choice([-1, 1], size=200)])
    ds = MultiLabelDataset(X=X, Y=Y)
    links, diag = fit_links_with_diagnostics(np.array([1.0, 0.0]), ds)
    assert diag.degenerate == (True, False)
    for link, iters in zip(links, diag.iterations):
        _assert_feasible(link, IsotonicFitOptions())
        assert iters >= 1


def test_antitone_labels_collapse_to_flat_link():
    # labels perfectly anti-correlated with the margin: the monotone fit
    # cannot decrease, so it flattens around 1/2
    rng = np.random.default_rng(4)
    X = rng.standard_normal((1000, 1))
    Y = -np.sign(X).astype(int)
    ds = MultiLabelDataset(X=X, Y=Y)
    link = fit_links_with_diagnostics(np.array([1.0]), ds)[0][0]
    vals = np.asarray(link.values)
    assert np.max(np.abs(vals - 0.5)) < 0.05


def test_binned_fit_matches_qp_oracle():
    # the fit minimizes the weighted binned least-squares objective over
    # {monotone, Lipschitz, symmetric, value 1/2 at 0, in [0,1]}; compare its
    # objective against a generic SLSQP solve of the same program
    rng = np.random.default_rng(5)
    n = 400
    model, ds = _logistic_dataset(n, 1, seed=5)
    opts = IsotonicFitOptions(grid_size=16)  # rounded up to 17 knots
    link = fit_links_with_diagnostics(model.u_star, ds, opts)[0][0]
    grid = np.asarray(link.grid)
    vals = np.asarray(link.values)
    delta = grid[1] - grid[0]

    # rebuild the binned targets exactly as the public grid implies
    margins = ds.X @ model.u_star
    idx = np.clip(np.rint((margins - grid[0]) / delta).astype(int),
                  0, grid.size - 1)
    counts = np.bincount(idx, minlength=grid.size).astype(float)
    y01 = (ds.Y[:, 0] + 1.0) / 2.0
    sums = np.bincount(idx, weights=y01, minlength=grid.size)
    target = np.where(counts > 0, sums / np.maximum(counts, 1.0), 0.5)

    def objective(v):
        return float(np.sum(counts * (v - target) ** 2))

    # parametrize by the right half; symmetry and the center pin then hold
    # by construction, leaving only the monotone/Lipschitz band constraints
    center = grid.size // 2

    def full(r):
        return np.concatenate([1.0 - r[::-1][:-1], r])

    cons = [
        {"type": "eq", "fun": lambda r: r[0] - 0.5},
        {"type": "ineq", "fun": lambda r: np.diff(r)},
        {"type": "ineq", "fun": lambda r: opts.lipschitz * delta - np.diff(r)},
    ]
    res = optimize.minimize(lambda r: objective(full(r)),
                            np.full(center + 1, 0.5), method="SLSQP",
                            bounds=[(0.0, 1.0)] * (center + 1),
                            constraints=cons,
                            options={"maxiter": 500, "ftol": 1e-12})
    assert res.success
    assert objective(vals) <= objective(full(res.x)) + 1e-6


def _increment_kkt_residual(link, margins, y01, opts):
    """Largest KKT violation of the binned least-squares link fit, written in
    increments outward from the centre knot, each in [0, L * delta]; the
    gradient is divided by the total weight."""
    grid = np.asarray(link.grid)
    vals = np.asarray(link.values)
    delta = grid[1] - grid[0]
    idx = np.clip(np.rint((margins - grid[0]) / delta).astype(int),
                  0, grid.size - 1)
    counts = np.bincount(idx, minlength=grid.size).astype(float)
    sums = np.bincount(idx, weights=y01, minlength=grid.size)
    target = np.where(counts > 0, sums / np.maximum(counts, 1.0), 0.5)
    resid = counts * (vals - target) / counts.sum()

    center = grid.size // 2
    # increment j moves every knot j or more steps out from the centre: up on
    # the right, down on the left; symmetry ties the two sides' increments
    g_r = np.cumsum(resid[:center:-1])[::-1]
    g_l = -np.cumsum(resid[:center])[::-1]
    inc_r = np.diff(vals[center:])
    inc_l = -np.diff(vals[center::-1])
    if opts.enforce_symmetry:
        pairs = [(g_r + g_l, inc_r)]
    else:
        pairs = [(g_r, inc_r), (g_l, inc_l)]
    step = opts.lipschitz * delta
    worst = 0.0
    for g, inc in pairs:
        at_lo = inc <= 1e-12
        at_hi = inc >= step - 1e-12
        viol = np.where(at_lo, np.maximum(-g, 0.0),
                        np.where(at_hi, np.maximum(g, 0.0), np.abs(g)))
        worst = max(worst, float(viol.max()))
    return worst


@pytest.mark.parametrize("symmetric", [True, False])
def test_production_grid_fit_meets_kkt(symmetric):
    # at the 513-knot grid the fit is the exact constrained least-squares
    # optimum, not an iterate stopped short of it
    model, ds = _logistic_dataset(4000, 1, seed=5)
    opts = IsotonicFitOptions(enforce_symmetry=symmetric)
    link, = fit_links_with_diagnostics(model.u_star, ds, opts)[0]
    assert link.grid.size == 513
    _assert_feasible(link, opts)
    y01 = (ds.Y[:, 0] + 1.0) / 2.0
    assert _increment_kkt_residual(link, ds.X @ model.u_star, y01, opts) <= 1e-9


def _bvls_increments(w, target, step):
    """The chain fit as bounded least squares in the increments, solved by
    scipy's BVLS on the dense cumulative-sum matrix."""
    sw = np.sqrt(w / w.sum())
    cumsum = np.tril(np.ones((w.size, w.size)))
    res = optimize.lsq_linear(sw[:, None] * cumsum, sw * target,
                              bounds=(0.0, step), method="bvls")
    assert res.success
    return res.x


def _free_count(inc, x, step):
    # increments inside (0, step) by more than the chain fit's margin
    margin = FREE_MARGIN * (step + np.abs(x))
    return int(np.count_nonzero((inc > margin) & (inc < step - margin)))


def _adversarial_chains():
    """(w, target, step) inputs at the edges of the chain fit: extreme weight
    ratios, the shortest chains, a step wider than the target range and
    targets out of reach on both sides."""
    step = 0.05
    # runs of empty-bin weights between heavy blocks; the objective is flat
    # to round-off on such a run, so each run sits where the bounds pin it:
    # a full-slope rise towards an unreachable block, or a flat stretch
    # between blocks pulled towards each other
    w = np.array([1e5, 1e5] + [1e-12] * 6 + [1e5, 3.0] + [1e-12] * 5
                 + [2e4, 1e5, 7.0] + [1e-12] * 4 + [1e5])
    target = np.array([-1.0, -1.0] + [0.0] * 6 + [5.0, 5.0] + [0.0] * 5
                      + [0.2, 0.2, 0.3] + [0.0] * 4 + [0.25])
    yield w, target, step
    yield np.array([2.0]), np.array([0.01]), step  # K = 1, free
    yield np.array([2.0]), np.array([3.0]), step  # K = 1, at the step
    yield np.array([1e5, 1e-3]), np.array([0.03, -0.4]), step  # K = 2
    yield np.array([1.0, 4.0]), np.array([-0.2, 0.7]), step  # K = 2
    wide = np.random.default_rng(9).uniform(0.5, 5.0, 30)
    dips = np.random.default_rng(10).normal(0.0, 0.1, 30)
    yield wide, dips, 1.0  # the step spans the whole target range
    yield wide, np.concatenate([np.full(15, -3.0), np.full(15, 9.0)]), step
    yield wide, np.full(30, -2.0), step  # all below reach: x = 0
    yield wide, np.full(30, 1e3), step  # all above reach: full slope


def _oracle_chains():
    rng = np.random.default_rng(8)
    for _ in range(40):
        size = int(rng.integers(5, 257))
        step = float(rng.uniform(1e-3, 0.2))
        w = rng.uniform(0.05, 20.0, size)
        # a noisy rise, so the fit mixes free and bound increments
        target = np.cumsum(rng.normal(0.3 * step, step, size)) + rng.normal(0, 0.1, size)
        yield w, target, step
    yield from _adversarial_chains()


def test_chain_fit_matches_bvls_oracle():
    for w, target, step in _oracle_chains():
        with np.errstate(all="raise"):
            x, free = _chain_fit(w, target, step)
        inc_bvls = _bvls_increments(w, target, step)
        x_bvls = np.cumsum(inc_bvls)
        assert np.max(np.abs(x - x_bvls)) <= 1e-10
        inc = np.diff(x, prepend=0.0)
        assert np.all(inc >= 0.0) and np.all(inc <= step * (1 + 1e-12))
        assert free == _free_count(inc_bvls, x_bvls, step)


def test_chain_fit_with_every_increment_at_a_bound():
    step = 0.1
    cases = (
        # heavy points below zero hold the first two increments at 0; light
        # points far above pull the last two to the step bound
        (np.array([100.0, 100.0, 1.0, 1.0]), np.array([-1.0, -1.0, 5.0, 5.0]),
         [0.0, 0.0, step, 2 * step]),
        # the mirror case: two rises at the bound, then flat
        (np.ones(5), np.array([10.0, 10.0, 0.0, 0.0, 0.0]),
         [step, 2 * step, 2 * step, 2 * step, 2 * step]),
    )
    for w, target, want in cases:
        with np.errstate(all="raise"):
            x, free = _chain_fit(w, target, step)
        assert x == pytest.approx(want, abs=1e-15)
        assert free == 0
        x_bvls = np.cumsum(_bvls_increments(w, target, step))
        assert np.max(np.abs(x - x_bvls)) <= 1e-10


@pytest.mark.parametrize("symmetric", [True, False])
def test_empty_bins_are_interpolated_between_fitted_knots(symmetric):
    # margins at five of the 17 knots leave interior bins empty; their knots
    # carry no weight, so the fit sets them by linear interpolation between
    # the nearest knots with data (the centre, at 1/2, counted) and holds
    # them flat past the outermost one (knots -4 and -3.5 when not symmetric)
    knots = np.array([-3.0, -1.0, 0.5, 2.5, 4.0])
    ones = np.array([2, 4, 6, 7, 9])  # of 10 labels at each knot
    X = np.repeat(knots, 10)[:, None]
    Y = np.where(np.tile(np.arange(10), 5) < np.repeat(ones, 10), 1, -1)[:, None]
    opts = IsotonicFitOptions(enforce_symmetry=symmetric, grid_size=16)
    link, = fit_links_with_diagnostics(np.array([1.0]),
                                       MultiLabelDataset(X=X, Y=Y), opts)[0]
    _assert_feasible(link, opts)
    grid, vals = link.grid, link.values
    has = np.isin(grid, knots) | (grid == 0.0)
    if symmetric:
        has |= np.isin(-grid, knots)
    assert 0 < has.sum() < grid.size
    want = np.interp(grid, grid[has], vals[has])
    assert np.max(np.abs(vals - want)) <= 1e-15


def test_semiparametric_fit_recovers_direction_and_links():
    model, ds = _logistic_dataset(20_000, 3, seed=6)
    out = semiparametric_fit(ds, split_fraction=0.1)
    assert out.fit.converged
    assert np.linalg.norm(out.fit.u_hat - model.u_star) < 0.08
    assert out.stage1_index.size == 2000
    assert out.stage2_index.size == 18_000
    for link in out.links:
        assert _link_l2_error(link, LR) <= 0.1
    # the refit is stationary for the per-labeler loss it minimizes
    spec = LossSpec(mode=LossMode.PER_LABELER, links=out.links)
    ds2 = MultiLabelDataset(X=ds.X[out.stage2_index], Y=ds.Y[out.stage2_index])
    g = loss_gradient(spec, out.fit.theta_hat, ds2)
    assert np.linalg.norm(g) < 1e-8


def test_semiparametric_fit_deterministic():
    _, ds = _logistic_dataset(4000, 2, seed=7)
    a = semiparametric_fit(ds, split_fraction=0.2)
    b = semiparametric_fit(ds, split_fraction=0.2)
    assert np.array_equal(a.fit.theta_hat, b.fit.theta_hat)
    assert all(np.array_equal(la.values, lb.values)
               for la, lb in zip(a.links, b.links))


def test_semiparametric_fit_split_validation():
    _, ds = _logistic_dataset(200, 2, seed=8)
    with pytest.raises(ValueError):
        semiparametric_fit(ds, split_fraction=0.0)
    with pytest.raises(ValueError):
        semiparametric_fit(ds, split_fraction=1.0)
    with pytest.raises(ValueError):
        semiparametric_fit(ds, split_fraction=0.01)  # 2 rows < d + 1


def test_isotonic_options_validation():
    with pytest.raises(ValueError):
        IsotonicFitOptions(lipschitz=0.0)
    with pytest.raises(ValueError):
        IsotonicFitOptions(grid_size=8)


def test_estimate_alpha_consistent():
    alphas = (0.5, 2.0)
    model, ds = _logistic_dataset(100_000, 2, seed=9, alphas=alphas)
    est = estimate_alpha(ds, model.u_star)
    assert not est.separable.any()
    assert not est.below_floor.any()
    assert np.max(np.abs(est.alpha - np.array(alphas))) < 0.1
    assert np.array_equal(est.alpha, est.raw)


def test_estimate_alpha_flags():
    rng = np.random.default_rng(10)
    X = rng.standard_normal((500, 1))
    margins = X[:, 0]
    # labeler 0 is noiseless (separable in the scalar reliability), labeler 1
    # is mildly anti-correlated (finite but negative reliability)
    flips = np.where(rng.random(500) < 0.45, 1, -1)
    Y = np.column_stack([np.sign(margins),
                         np.sign(margins) * flips]).astype(int)
    ds = MultiLabelDataset(X=X, Y=Y)
    est = estimate_alpha(ds, np.array([1.0]))
    assert est.separable[0] and not est.separable[1]
    assert est.below_floor[1]
    assert est.raw[1] < 0
    assert est.alpha[1] == ALPHA_FLOOR
    with pytest.raises(ValueError):
        estimate_alpha(ds, np.array([2.0]))  # not a unit vector


def test_crowdsourced_fit_matches_truth_direction():
    alphas = (0.5, 1.0, 2.0)
    model, ds = _logistic_dataset(20_000, 3, t_star=1.0, seed=11,
                                  alphas=alphas)
    res = crowdsourced_fit(ds, np.array(alphas))
    assert res.converged
    assert np.linalg.norm(res.u_hat - model.u_star) < 0.05


def test_crowdsourced_fit_alpha_perturbation_stable():
    # an O(n^{-1/2}) error in the plugged-in alphas moves u_hat by a
    # comparably small amount
    alphas = np.array([0.5, 1.0, 2.0])
    model, ds = _logistic_dataset(20_000, 3, t_star=1.0, seed=12,
                                  alphas=tuple(alphas))
    base = crowdsourced_fit(ds, alphas)
    bumped = crowdsourced_fit(ds, alphas * (1.0 + 0.01))
    assert np.linalg.norm(base.u_hat - bumped.u_hat) < 0.02
