import numpy as np
import pytest
from scipy import integrate, stats

from labelsim import (
    CovariateKind,
    LinkFamily,
    LinkSpec,
    ModelSpec,
    MultiLabelDataset,
    TheoryPrediction,
    beta_regular,
    construct_matching_link,
    isotropic_gaussian,
    link_antiderivative,
    link_derivative,
    link_eval,
    logistic_link,
    scaled_logistic_link,
    tabulated_link,
)
from labelsim.links import LOG2, _logistic_terms, group_links, link_terms


def test_logistic_basics():
    lr = logistic_link()
    assert link_eval(lr, 0.0) == 0.5
    assert link_eval(lr, 2.0) == pytest.approx(1.0 / (1.0 + np.exp(-2.0)), abs=1e-15)
    # symmetry
    t = np.linspace(-30, 30, 101)
    assert np.max(np.abs(link_eval(lr, t) + link_eval(lr, -t) - 1.0)) < 1e-12
    # no overflow far in the tails
    assert link_eval(lr, -1000.0) == 0.0
    assert link_eval(lr, 1000.0) == 1.0


def test_scaled_logistic():
    link = scaled_logistic_link(3.0)
    lr = logistic_link()
    t = np.linspace(-4, 4, 41)
    assert np.allclose(link_eval(link, t), link_eval(lr, 3.0 * t), atol=1e-15)
    with pytest.raises(ValueError):
        scaled_logistic_link(-1.0)


def test_logistic_is_scaled_logistic_at_alpha_one():
    lr, scaled = logistic_link(), scaled_logistic_link(1.0)
    assert lr == scaled
    distinct, index = group_links([lr, scaled_logistic_link(2.0), scaled, lr])
    assert distinct == [lr, scaled_logistic_link(2.0)]
    assert index.tolist() == [0, 1, 0, 0]


def test_link_derivative_finite_difference():
    rng = np.random.default_rng(0)
    h = 1e-6
    for link in (logistic_link(), scaled_logistic_link(0.7)):
        for t in rng.uniform(-3, 3, size=20):
            fd = (link_eval(link, t + h) - link_eval(link, t - h)) / (2 * h)
            assert link_derivative(link, t) == pytest.approx(fd, abs=1e-8)


def test_antiderivative_matches_numeric_integral():
    rng = np.random.default_rng(1)
    grid = np.linspace(-2.0, 2.0, 9)
    vals = np.linspace(0.1, 0.9, 9)
    links = [logistic_link(), scaled_logistic_link(2.0),
             tabulated_link(grid, vals)]
    for link in links:
        for t in rng.uniform(-3, 3, size=10):
            num, _ = integrate.quad(lambda v: link_eval(link, v), 0.0, t,
                                    epsabs=1e-12, epsrel=1e-12, limit=200)
            assert link_antiderivative(link, t) == pytest.approx(num, abs=1e-9)
        assert link_antiderivative(link, 0.0) == 0.0


def test_tabulated_link_validation():
    grid = np.linspace(-1, 1, 5)
    with pytest.raises(ValueError):
        tabulated_link(grid, [0.1, 0.3, 0.2, 0.6, 0.9])  # not monotone
    with pytest.raises(ValueError):
        tabulated_link(grid, [0.1, 0.3, 0.5, 0.6, 1.2])  # outside [0,1]
    with pytest.raises(ValueError):
        tabulated_link([0.0, 0.0, 1.0], [0.1, 0.2, 0.3])  # grid not increasing


def test_link_parameters_must_be_finite():
    for alpha in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite"):
            scaled_logistic_link(alpha)
    grid = np.linspace(-1, 1, 5)
    with pytest.raises(ValueError, match="finite"):
        tabulated_link(grid, [0.0, 0.25, np.nan, 0.75, 1.0])
    with pytest.raises(ValueError, match="finite"):
        tabulated_link([-1.0, -0.5, np.nan, 0.5, 1.0], [0.0, 0.25, 0.5, 0.75, 1.0])
    with pytest.raises(ValueError, match="finite"):
        LinkSpec(family=LinkFamily.TABULATED_MONOTONE, grid=grid,
                 values=[0.0, 0.25, np.nan, 0.75, 1.0])


def test_tabulated_symmetry_detection():
    grid = np.linspace(-2, 2, 5)
    sym = tabulated_link(grid, [0.1, 0.3, 0.5, 0.7, 0.9])
    asym = tabulated_link(grid, [0.2, 0.3, 0.5, 0.7, 0.9])
    assert sym.symmetric
    assert not asym.symmetric
    # the scaled-logistic family is symmetric at every alpha
    for alpha in (0.2, 1.0, 10.0):
        assert scaled_logistic_link(alpha).symmetric
    assert LinkSpec(family=LinkFamily.SCALED_LOGISTIC).symmetric


def test_symmetric_flag_is_checked():
    # symmetric means mirror-image knots with v(t) + v(-t) = 1 to
    # SYMMETRY_TOL, derived from the knots
    grid = np.linspace(-2, 2, 5)
    values = np.array([0.1, 0.3, 0.5, 0.7, 0.9])
    assert tabulated_link(grid, values).symmetric
    assert not tabulated_link(grid, [0.2, 0.3, 0.5, 0.7, 0.9]).symmetric
    assert not tabulated_link(np.linspace(-2, 3, 5), values).symmetric
    # a bare asymmetric table is accepted, and reads as asymmetric
    bare = LinkSpec(family=LinkFamily.TABULATED_MONOTONE, grid=grid,
                    values=[0.2, 0.3, 0.5, 0.7, 0.9])
    assert not bare.symmetric
    # off by 1e-9 at one knot: not symmetric
    near = values.copy()
    near[-1] += 1e-9
    assert not tabulated_link(grid, near).symmetric
    # off by round-off: symmetric
    close = values.copy()
    close[-1] += 1e-15
    assert tabulated_link(grid, close).symmetric
    assert tabulated_link(grid * (1 + 1e-15), values).symmetric


def test_tabulated_eval_clamps_and_interpolates():
    link = tabulated_link([-1.0, 0.0, 1.0], [0.2, 0.5, 0.8])
    assert link_eval(link, -5.0) == 0.2
    assert link_eval(link, 5.0) == 0.8
    assert link_eval(link, 0.5) == pytest.approx(0.65)
    assert link_derivative(link, 0.5) == pytest.approx(0.3)
    assert link_derivative(link, 5.0) == 0.0


def _reference_derivative(grid, values, t):
    # right slope at a knot, 0 outside the grid and at its last knot
    slopes = np.diff(values) / np.diff(grid)
    idx = np.searchsorted(grid, t, side="right") - 1
    inside = (idx >= 0) & (idx < slopes.size)
    out = np.zeros_like(t)
    out[inside] = slopes[idx[inside]]
    return out


def _reference_antiderivative(grid, values, t):
    # cumulative trapezoid integral plus the partial bin, searched per point
    seg = 0.5 * (values[1:] + values[:-1]) * np.diff(grid)
    cum = np.concatenate([[0.0], np.cumsum(seg)])

    def from_left(x):
        out = np.empty_like(x)
        below, above = x < grid[0], x > grid[-1]
        mid = ~(below | above)
        out[below] = values[0] * (x[below] - grid[0])
        out[above] = cum[-1] + values[-1] * (x[above] - grid[-1])
        xm = x[mid]
        idx = np.clip(np.searchsorted(grid, xm, side="right") - 1, 0, grid.size - 2)
        dx = xm - grid[idx]
        slope = (values[idx + 1] - values[idx]) / (grid[idx + 1] - grid[idx])
        out[mid] = cum[idx] + values[idx] * dx + 0.5 * slope * dx * dx
        return out

    return from_left(t) - from_left(np.zeros(1))[0]


def _bits(a):
    # equal bits, so -0.0 differs from 0.0; every NaN counts as one value
    a = np.where(np.isnan(a), np.nan, a)
    return a.view(np.int64)


def _lookup_cases():
    rng = np.random.default_rng(7)
    for size, lo, hi in ((2, -1.0, 1.0), (3, -1.0, 1.0), (17, -3.0, 3.0),
                         (513, -4.13, 4.13), (801, -12.0 / 0.7, 12.0 / 0.7),
                         (100, -5.0, 5.0), (41, 0.3, 2.9)):
        grid = np.linspace(lo, hi, size)
        values = np.sort(rng.uniform(0.0, 1.0, size))
        values[: size // 3] = values[0]  # a flat stretch
        t = np.concatenate([
            grid, np.nextafter(grid, np.inf), np.nextafter(grid, -np.inf),
            rng.uniform(lo - 1.0, hi + 1.0, 500),
            [0.0, -0.0, lo - 1e-300, hi + 1e-300, 1e300, -1e300,
             np.inf, -np.inf, np.nan]])
        yield grid, values, t


def test_tabulated_lookup_bins_match_searchsorted():
    for grid, values, t in _lookup_cases():
        bins = tabulated_link(grid, values)._table.bins(t)
        assert np.array_equal(bins, np.searchsorted(grid, t, side="right") - 1)


def test_tabulated_lookups_are_bit_identical_to_references():
    for grid, values, t in _lookup_cases():
        link = tabulated_link(grid, values)
        want_value = np.interp(t, grid, values)
        want_deriv = _reference_derivative(grid, values, t)
        want_anti = _reference_antiderivative(grid, values, t)
        # link_terms serves all three from one bin lookup
        anti, value, deriv = link_terms(link, t)
        cases = (
            (link_eval(link, t), want_value), (value, want_value),
            (link_derivative(link, t), want_deriv), (deriv, want_deriv),
            (link_antiderivative(link, t), want_anti), (anti, want_anti),
        )
        for got, want in cases:
            assert np.array_equal(_bits(got), _bits(want)), grid.size
        for x in (0.0, -0.0, float(grid[1])):
            assert link_eval(link, x) == np.interp(x, grid, values)


def _where_logistic_terms(alpha, t):
    # the logistic terms with sigma's numerator chosen by np.where
    at = alpha * t
    e = np.exp(-np.abs(at))
    d = 1.0 + e
    value = np.where(at >= 0, 1.0, e) / d
    anti = (np.maximum(at, 0.0) + np.log1p(e) - LOG2) / alpha
    deriv = e / (d * d) * alpha
    return anti, value, deriv


def test_logistic_terms_are_bit_identical_to_where_formula():
    # np.maximum(e, alpha t >= 0) in place of np.where: 0 <= e <= 1, so
    # the two agree bit for bit, signed zeros and NaN included; link_eval
    # computes sigma alone, with the same bits as link_terms
    rng = np.random.default_rng(4)
    t = np.concatenate([
        [np.nan, 0.0, -0.0, np.inf, -np.inf, 800.0, -800.0, 1e308, -1e308],
        rng.standard_normal(500) * 10.0 ** rng.uniform(-8, 3, 500)])
    for alpha in (0.1, 1.0, 50.0):
        link = scaled_logistic_link(alpha)
        with np.errstate(over="ignore", invalid="ignore"):
            got = _logistic_terms(link, t)
            want = _where_logistic_terms(alpha, t)
            value = link_eval(link, t)
            scalars = [link_eval(link, x) for x in t[:9]]
        for g, w in zip(got, want):
            assert np.array_equal(_bits(g), _bits(w)), alpha
        assert np.array_equal(_bits(value), _bits(got[1])), alpha
        assert np.array_equal(_bits(np.array(scalars)), _bits(got[1][:9])), alpha


def test_tabulated_grid_must_be_uniform():
    grid = np.array([-1.0, -0.5, 0.2, 0.6, 1.0])
    with pytest.raises(ValueError, match="uniform"):
        tabulated_link(grid, [0.1, 0.3, 0.5, 0.7, 0.9])
    with pytest.raises(ValueError, match="uniform"):
        construct_matching_link(logistic_link(), np.array([1.0, 0.0]), 3,
                                np.array([1.0, 0.0]), 1, grid=grid)
    # rounding-level deviations, as np.linspace leaves them, are uniform
    tabulated_link(np.linspace(-7.3, 7.3, 1001), np.linspace(0.0, 1.0, 1001))


def test_tabulated_link_keeps_its_own_knots():
    # the lookup table is built once, so the link copies the knots it is
    # given and refuses writes to them
    grid = np.linspace(-1.0, 1.0, 5)
    values = np.array([0.1, 0.3, 0.5, 0.7, 0.9])
    link = tabulated_link(grid, values)
    values[:] = 0.5
    assert link_eval(link, 0.25) == pytest.approx(0.6)
    assert link_antiderivative(link, 1.0) == pytest.approx(0.7)
    with pytest.raises(ValueError):
        link.values[0] = 0.2


def test_covariate_distributions():
    g = isotropic_gaussian(4)
    assert g.noise_exponent == 1.0
    assert g.c_z == pytest.approx(np.sqrt(2 / np.pi))
    assert np.allclose(g.covariance(), np.eye(4))
    # the Gaussian |Z| density is scipy's, bit for bit
    z = np.concatenate([np.linspace(0.0, 40.0, 4001), [1e-300, 1e-8, 37.5]])
    assert np.array_equal(g.z_abs_density(z), 2.0 * stats.norm.pdf(z))

    u = np.array([3.0, 4.0, 0.0])
    b = beta_regular(3, 2.0, u)
    assert np.linalg.norm(b.direction) == pytest.approx(1.0)
    assert b.noise_exponent == 2.0
    # density of |Z| integrates to 1 and matches the c_z limit at 0
    total, _ = integrate.quad(b.z_abs_density, 0, np.inf)
    assert total == pytest.approx(1.0, abs=1e-9)
    z = 1e-8
    assert z ** (1 - 2.0) * b.z_abs_density(z) == pytest.approx(b.c_z, rel=1e-6)
    cov = b.covariance()
    d = b.direction
    assert d @ cov @ d == pytest.approx(2.0 * 3.0)  # E[Z^2] for beta=2
    with pytest.raises(ValueError):
        beta_regular(3, -1.0, u)
    with pytest.raises(ValueError):
        beta_regular(3, 1.0, np.zeros(3))
    # the beta-regular |Z| density is stats.gamma.pdf, bit for bit, from 0
    # and the subnormals to where it underflows
    z = np.concatenate([np.linspace(0.0, 60.0, 6001),
                        [1e-320, 1e-300, 1e-8, 700.0, 745.0, 800.0]])
    for beta in (0.25, 0.5, 1.0, 1.5, 2.0, 3.7, 10.0):
        density = beta_regular(3, beta, u).z_abs_density(z)
        assert np.array_equal(density, stats.gamma.pdf(z, a=beta)), beta


def test_model_spec():
    lr = logistic_link()
    model = ModelSpec(theta_star=np.array([3.0, 4.0]), links=(lr, lr),
                      covariates=isotropic_gaussian(2))
    assert model.m == 2
    assert model.d == 2
    assert model.t_star == pytest.approx(5.0)
    assert np.allclose(model.u_star, [0.6, 0.8])
    with pytest.raises(ValueError):
        ModelSpec(theta_star=np.zeros(2), links=(lr,),
                  covariates=isotropic_gaussian(2))
    with pytest.raises(ValueError):
        ModelSpec(theta_star=np.ones(3), links=(lr,),
                  covariates=isotropic_gaussian(2))


def test_dataset_validation():
    X = np.zeros((3, 2))
    with pytest.raises(ValueError):
        MultiLabelDataset(X=X, Y=np.array([[1, 2], [1, 1], [-1, 1]]))
    with pytest.raises(ValueError):
        MultiLabelDataset(X=X, Y=np.ones((4, 2)))
    ds = MultiLabelDataset(X=X, Y=np.array([[1, -1], [1, 1], [-1, 1]]))
    assert (ds.n, ds.d, ds.m) == (3, 2, 2)


def test_theory_prediction_requires_symmetric_covariance():
    with pytest.raises(ValueError):
        TheoryPrediction(kind="x", t_m=1.0, variance_multiplier=1.0,
                         covariance=np.array([[0.0, 1.0], [0.0, 0.0]]))
