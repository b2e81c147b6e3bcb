import dataclasses
import itertools
import math
from functools import cached_property

import numpy as np
import pytest
from scipy import integrate, optimize, special, stats

from labelsim import theory
from labelsim.estimators import _reduce
from labelsim.links import mirror_symmetric

from labelsim import (
    BracketNotFound,
    CovariateKind,
    DivergentIntegral,
    GapFunction,
    GapMode,
    LossMode,
    LossSpec,
    ModelSpec,
    NotOrthogonal,
    PredictionKind,
    ZExpectationEngine,
    beta_regular,
    binom_tail_transform,
    construct_matching_link,
    gap_eval,
    inverse_binom_tail_transform,
    isotropic_gaussian,
    largem_constants,
    largem_rho_limit_check,
    largem_tz_limit_check,
    link_derivative,
    link_eval,
    logistic_link,
    predict_covariance,
    pseudo_inverse_decomp,
    rho_m,
    sample_dataset,
    scaled_logistic_link,
    solve_tm,
    tabulated_link,
)

LR = logistic_link()
GAUSS3 = isotropic_gaussian(3)


def _enumerated_rho(t, links):
    """Brute-force majority probability over all 2^m label outcomes."""
    m = len(links)
    probs = np.array([link_eval(link, t) for link in links])
    total = 0.0
    for signs in itertools.product([1, -1], repeat=m):
        signs = np.array(signs)
        p = np.prod(np.where(signs == 1, probs, 1.0 - probs))
        s = signs.sum()
        if s > 0:
            vote = 1.0
        elif s < 0:
            vote = 0.0
        else:
            vote = 0.5
        total += p * vote
    if t > 0:
        return total
    if t < 0:
        return 1.0 - total
    return 0.5


# ------------------------------ oracle rules -------------------------------
# Rules the library does not use, kept here as independent checks of its
# fixed-panel engine: Gauss-Hermite and Monte Carlo as engines with their own
# nodes (so they plug into GapFunction), adaptive quadrature as scalar
# integrals of the textbook formulas.


@dataclasses.dataclass(frozen=True)
class _GaussHermiteEngine(ZExpectationEngine):
    """Gauss-Hermite rule on Z itself; Gaussian margins only."""

    gh_order: int = 80

    def __post_init__(self):
        super().__post_init__()
        if self.dist.kind is not CovariateKind.ISOTROPIC_GAUSSIAN:
            raise ValueError("Gauss-Hermite requires Gaussian margins")

    @cached_property
    def _rule(self):
        x, w = np.polynomial.hermite.hermgauss(self.gh_order)
        return np.sqrt(2.0) * x, w / np.sqrt(np.pi)


@dataclasses.dataclass(frozen=True)
class _MonteCarloEngine(ZExpectationEngine):
    """The same mc_n draws of Z (one seed) on every call, weighted 1/mc_n."""

    mc_n: int = 100_000
    mc_seed: int = 0

    @cached_property
    def _rule(self):
        rng = np.random.default_rng(self.mc_seed)
        if self.dist.kind is CovariateKind.ISOTROPIC_GAUSSIAN:
            z = rng.standard_normal(self.mc_n)
        else:
            z = (rng.gamma(self.dist.beta, 1.0, size=self.mc_n)
                 * rng.choice([-1.0, 1.0], size=self.mc_n))
        return z, np.full(self.mc_n, 1.0 / self.mc_n)


def _quad_expect(dist, f, cuts=(1.0,)):
    """Adaptive-quadrature E[f(Z)] for a scalar f: its even part against the
    |Z| density on (0, inf), split at the given cuts."""
    p = dist.z_abs_density

    def even_part(z):
        return 0.5 * (f(z) + f(-z)) * float(p(z))

    edges = [0.0, *sorted(cuts), np.inf]
    return sum(integrate.quad(even_part, a, b, epsrel=1e-12, epsabs=1e-15,
                              limit=400)[0]
               for a, b in zip(edges[:-1], edges[1:]))


def _oracle_vote_plus(probs):
    """P(majority vote +1) at one margin: a binomial tail when the votes are
    identical, a scalar Poisson-binomial DP otherwise."""
    m = len(probs)
    k = m // 2
    if len(set(probs)) == 1:
        p = probs[0]
        if m % 2 == 1:
            return float(special.bdtrc(k, m, p))
        tie = special.bdtr(k, m, p) - special.bdtr(k - 1, m, p)
        return float(special.bdtrc(k, m, p) + 0.5 * tie)
    dist = [1.0]
    for p in probs:
        dist = [a * (1.0 - p) + b * p for a, b in zip(dist + [0.0], [0.0] + dist)]
    tie = 0.5 * dist[k] if m % 2 == 0 else 0.0
    return sum(dist[k + 1:]) + tie


def _oracle_prediction(kind, model, t_hint=None, sigma=LR):
    """(t_m, multiplier) from the per-labeler formulas, every expectation by
    adaptive quadrature and t_m by Brent's method to 1e-13 inside
    t_hint * (1 -+ 1e-3); brentq fails unless the gap changes sign there.
    ``sigma`` is the model link of the exact kinds."""
    t_star, m, dist = model.t_star, model.m, model.covariates
    links = model.links
    width = 1.0 / (t_star * np.sqrt(m))
    kinks = {abs(x) / t_star for link in links if link.grid is not None
             for x in link.grid if x != 0}
    # sigma(t z) changes over 1 / (alpha t) for t near the root
    model_width = 1.0 / (sigma.alpha * t_hint)
    cuts = (width / 4, width, 4 * width, 1.0, *kinks,
            model_width / 4, model_width, 4 * model_width)

    def expect(f):
        return _quad_expect(dist, f, cuts)

    def probs(z):
        return [float(link_eval(link, t_star * z)) for link in links]

    if kind in (PredictionKind.SEMIPARAMETRIC, PredictionKind.CROWDSOURCING):
        nums = [expect(lambda z, link=link: float(
            link_eval(link, t_star * z) * (1.0 - link_eval(link, t_star * z))))
            for link in links]
        dens = [expect(lambda z, link=link: float(
            t_star * link_derivative(link, t_star * z))) for link in links]
        return t_star, np.mean(nums) / np.mean(dens) ** 2 / m

    if kind is PredictionKind.MULTI_LABEL_EXACT:
        def phi(z):
            return float(np.mean(probs(z)))
    else:
        def phi(z):
            return _oracle_vote_plus(probs(z))

    def gap(t):
        return expect(lambda z: float(z * (link_eval(sigma, t * z) * (1.0 - phi(z))
                                           - link_eval(sigma, -t * z) * phi(z))))

    t = optimize.brentq(gap, t_hint * (1 - 1e-3), t_hint * (1 + 1e-3),
                        xtol=1e-13, rtol=4 * np.finfo(float).eps)

    def s(u):
        return float(link_eval(sigma, u))

    def ds(u):
        return float(link_derivative(sigma, u))

    if kind is PredictionKind.MAJORITY_VOTE_EXACT:
        num = expect(lambda z: s(-t * z) ** 2 * phi(z)
                     + s(t * z) ** 2 * (1.0 - phi(z)))
        den = expect(lambda z: ds(t * z))
        return t, num / (t ** 2 * den ** 2)
    e_le2 = expect(lambda z: (s(t * z) * (1.0 - phi(z)) - s(-t * z) * phi(z)) ** 2)
    e_he = expect(lambda z: ds(-t * z) * phi(z) + ds(t * z) * (1.0 - phi(z)))
    v_sum = sum(expect(lambda z, link=link: float(
        link_eval(link, t_star * z) * (1.0 - link_eval(link, t_star * z)))
        * (s(t * z) + s(-t * z)) ** 2) for link in links)
    return t, (e_le2 + v_sum / m ** 2) / (t ** 2 * e_he ** 2)


# --------------------------- expectation engine ----------------------------


def test_engine_moments_all_methods():
    for eng, tol in [(_GaussHermiteEngine(dist=GAUSS3), 1e-10),
                     (ZExpectationEngine(dist=GAUSS3), 1e-8)]:
        assert eng.expect(lambda z: z * z) == pytest.approx(1.0, abs=tol)
        assert eng.expect(lambda z: z) == pytest.approx(0.0, abs=tol)
    assert _quad_expect(GAUSS3, lambda z: z * z) == pytest.approx(1.0, abs=1e-8)
    assert _quad_expect(GAUSS3, lambda z: z) == pytest.approx(0.0, abs=1e-8)
    mc = _MonteCarloEngine(dist=GAUSS3, mc_n=200_000, mc_seed=1)
    assert mc.expect(lambda z: z * z) == pytest.approx(1.0, abs=0.02)


def test_engine_beta_regular_moments():
    dist = beta_regular(3, 2.0, np.array([1.0, 0, 0]))
    eng = ZExpectationEngine(dist=dist)
    # E[Z^2] for sign * Gamma(2,1) is 2 * 3 = 6
    assert eng.expect(lambda z: z * z) == pytest.approx(6.0, abs=1e-8)
    with pytest.raises(ValueError):
        _GaussHermiteEngine(dist=dist)


def test_quadrature_matches_large_monte_carlo():
    quad = ZExpectationEngine(dist=GAUSS3)
    n = 10_000_000
    mc = _MonteCarloEngine(dist=GAUSS3, mc_n=n, mc_seed=7)
    for f, second in [
        (lambda z: link_eval(LR, 2 * z) * (1 - link_eval(LR, 2 * z)),
         lambda z: (link_eval(LR, 2 * z) * (1 - link_eval(LR, 2 * z))) ** 2),
        (lambda z: link_derivative(LR, z), lambda z: link_derivative(LR, z) ** 2),
    ]:
        q = quad.expect(f)
        m = mc.expect(f)
        se = np.sqrt(max(mc.expect(second) - m * m, 0.0) / n)
        assert abs(q - m) <= 4 * se


def _oracle_cases():
    u = np.array([1.0, 0.0, 0.0, 0.0, 0.0])
    rel = (0.5, 1.0, 2.0)
    cases = [(PredictionKind.MAJORITY_VOTE_EXACT, _model(2.0, m, d=5))
             for m in (1, 4, 16, 64, 1024)]
    cases += [(PredictionKind.MAJORITY_VOTE_EXACT,
               ModelSpec(theta_star=2.0 * u, links=(LR,) * 64,
                         covariates=beta_regular(5, beta, u)))
              for beta in (0.5, 2.0)]
    cases += [(PredictionKind.MAJORITY_VOTE_EXACT,
               _model(2.0, m, d=5, links=tuple(
                   scaled_logistic_link(a) for a in rel * (m // 3))))
              for m in (9, 33)]
    cases += [(PredictionKind.MULTI_LABEL_EXACT,
               _model(2.0, m, links=tuple(scaled_logistic_link(a)
                                          for a in ([0.2, 10.0] * m)[:m])))
              for m in (2, 16, 64)]
    grid = np.linspace(-3.0, 3.0, 13)
    tab = tuple(tabulated_link(grid, 0.5 + 0.5 * np.tanh(a * grid))
                for a in (0.5, 1.0, 2.0))
    cases.append((PredictionKind.SEMIPARAMETRIC, _model(1.0, 6, links=tab * 2)))
    crowd = tuple(scaled_logistic_link(a) for a in rel)
    cases.append((PredictionKind.CROWDSOURCING, _model(1.0, 3, links=crowd)))
    cases = [(kind, model, LR) for kind, model in cases]
    # steep and flat model links, both labeling rules
    cases += [(kind, _model(2.0, 16, d=5), scaled_logistic_link(a))
              for kind, alphas in ((PredictionKind.MULTI_LABEL_EXACT, (0.1, 50.0)),
                                   (PredictionKind.MAJORITY_VOTE_EXACT, (0.1, 3.0)))
              for a in alphas]
    return cases


def test_engine_matches_adaptive_quadrature_oracle(monkeypatch):
    points = []
    expect = ZExpectationEngine.expect

    def counted(engine, f):
        def g(z):
            points[-1] += z.size
            return f(z)
        return expect(engine, g)

    monkeypatch.setattr(ZExpectationEngine, "expect", counted)
    for kind, model, sigma in _oracle_cases():
        points.append(0)
        pred = predict_covariance(kind, model, model_link=sigma)
        t_ref, mult_ref = _oracle_prediction(kind, model, pred.t_m, sigma)
        label = (f"{kind.value} m={model.m} {model.covariates.kind.value} "
                 f"model alpha={sigma.alpha}")
        assert pred.t_m == pytest.approx(t_ref, rel=1e-8), label
        assert pred.variance_multiplier == pytest.approx(mult_ref, rel=1e-8), label
        # the reported error estimates cover the deviation from the oracle
        assert abs(pred.t_m - t_ref) <= pred.t_m_error, label
        assert abs(pred.variance_multiplier - mult_ref) <= pred.multiplier_error, label
        assert (pred.root_iterations > 0) == (kind in (
            PredictionKind.MAJORITY_VOTE_EXACT, PredictionKind.MULTI_LABEL_EXACT))

    # identical labelers: the integrand points do not grow with m
    counts = []
    for m in (1, 16, 64, 1024):
        points.append(0)
        predict_covariance(PredictionKind.MULTI_LABEL_EXACT, _model(2.0, m))
        counts.append(points[-1])
    assert len(set(counts)) == 1, counts


def test_scaled_model_link_root_is_exact():
    # sigma_alpha(t z) = sigma(alpha t z), so with logistic true labelers the
    # multi-label root is t* / alpha however steep or flat the model link
    for a in (0.1, 50.0):
        pred = predict_covariance(PredictionKind.MULTI_LABEL_EXACT,
                                  _model(2.0, 16, d=5),
                                  model_link=scaled_logistic_link(a))
        assert pred.t_m == pytest.approx(2.0 / a, rel=1e-14)


def test_majority_root_guard_scales_with_model_alpha():
    # a steep model link puts the majority root below t*; the guard checks
    # alpha t_m >= t*, the margin the model link sees
    pred = predict_covariance(PredictionKind.MAJORITY_VOTE_EXACT,
                              _model(2.0, 1, d=5),
                              model_link=scaled_logistic_link(3.0))
    assert pred.t_m == pytest.approx(2.0 / 3.0, abs=1e-12)
    pred = predict_covariance(PredictionKind.MAJORITY_VOTE_EXACT,
                              _model(2.0, 16, d=5),
                              model_link=scaled_logistic_link(10.0))
    assert np.isfinite(pred.t_m) and np.isfinite(pred.variance_multiplier)
    assert 10.0 * pred.t_m >= 2.0


# --------------------------------- rho_m -----------------------------------


def test_rho_m_basics():
    assert rho_m(2.0, 1, LR) == pytest.approx(1 / (1 + np.exp(-2)), abs=1e-15)
    for m in (1, 2, 3, 5, 8):
        assert rho_m(0.0, m, LR) == 0.5
    for t in (0.3, 1.7, -2.2):
        for m in (2, 3, 6):
            assert rho_m(t, m, LR) == pytest.approx(rho_m(-t, m, LR), abs=1e-14)
            assert rho_m(t, m, LR) >= 0.5


def test_rho_m_monotone_in_abs_t_and_m():
    ts = np.linspace(0, 4, 30)
    vals = rho_m(ts, 5, LR)
    assert np.all(np.diff(vals) >= -1e-12)
    # more labelers help at a fixed positive margin
    assert rho_m(1.0, 9, LR) > rho_m(1.0, 3, LR) > rho_m(1.0, 1, LR)


def test_rho_m_matches_enumeration_heterogeneous():
    rng = np.random.default_rng(12)
    for m in (2, 3, 5, 6):
        links = tuple(scaled_logistic_link(a)
                      for a in rng.uniform(0.3, 3.0, size=m))
        for t in rng.uniform(-2.5, 2.5, size=8):
            assert rho_m(float(t), m, links) == pytest.approx(
                _enumerated_rho(float(t), links), abs=1e-14)


def test_rho_m_even_m_tie_term():
    links = (LR, LR)
    p = link_eval(LR, 0.8)
    expected = p * p + 0.5 * 2 * p * (1 - p)
    assert rho_m(0.8, 2, links) == pytest.approx(expected, abs=1e-14)


def test_majority_with_tabulated_links(monkeypatch):
    grid = np.array([-1.0, 0.0, 1.0])
    a = tabulated_link(grid, [0.2, 0.5, 0.8])  # 0.59 at t = 0.3
    b = tabulated_link(grid, [0.1, 0.5, 0.9])  # 0.62 at t = 0.3
    pa, pb = 0.59, 0.62
    # distinct links: Poisson-binomial, at least two of three votes are +1
    expected = pa * (1 - (1 - pb) ** 2) + (1 - pa) * pb ** 2
    assert rho_m(0.3, 3, [a, b, b]) == pytest.approx(
        expected, abs=1e-14)
    # both links are symmetric, so rho_m is even in t
    assert rho_m(-0.3, 3, [a, b, b]) == pytest.approx(expected, abs=1e-14)

    # equal copies are one link, so the binomial path answers
    def no_poisson_binomial(probs):
        raise AssertionError("equal links took the Poisson-binomial path")

    monkeypatch.setattr(theory, "_poisson_binomial_majority",
                        no_poisson_binomial)
    copy = tabulated_link(grid.copy(), [0.2, 0.5, 0.8])
    assert rho_m(0.3, 3, [a, copy, a]) == pytest.approx(
        3 * pa ** 2 * (1 - pa) + pa ** 3, abs=1e-14)


# ---------------------------- binomial transform ---------------------------


def test_binom_tail_transform_fixed_points():
    for m in (1, 2, 3, 7):
        assert binom_tail_transform(0.5, m) == pytest.approx(0.5, abs=1e-14)
        assert binom_tail_transform(0.0, m) == pytest.approx(0.0, abs=1e-14)
        assert binom_tail_transform(1.0, m) == pytest.approx(1.0, abs=1e-14)
    assert binom_tail_transform(0.3, 5) + binom_tail_transform(0.7, 5) \
        == pytest.approx(1.0, abs=1e-14)


def test_binom_tail_transform_brute_force():
    p = 0.8
    direct = sum(stats.binom.pmf(i, 3, p) for i in (2, 3))
    assert binom_tail_transform(p, 3) == pytest.approx(direct, abs=1e-14)


def test_binom_tail_transform_monotone_and_inverse():
    ps = np.linspace(0, 1, 101)
    for m in (2, 5, 9):
        vals = binom_tail_transform(ps, m)
        assert np.all(np.diff(vals) > 0)
        back = inverse_binom_tail_transform(vals, m)
        assert np.max(np.abs(back - ps)) < 1e-10
    with pytest.raises(ValueError):
        binom_tail_transform(1.2, 3)
    with pytest.raises(ValueError):
        inverse_binom_tail_transform(-0.1, 3)


# ------------------------- impossibility construction ----------------------


def test_matching_link_identity():
    theta = np.array([1.0, 2.0])
    grid = np.linspace(-6, 6, 101)
    link = construct_matching_link(LR, theta, 3, theta, 3, grid=grid)
    assert np.max(np.abs(link_eval(link, grid) - link_eval(LR, grid))) < 1e-10


def test_matching_link_reduces_labeler_count():
    theta = np.array([1.5, 0.0])
    theta_bar = np.array([3.0, 0.0])
    grid = np.linspace(-5, 5, 100)
    bar = construct_matching_link(LR, theta, 3, theta_bar, 1, grid=grid)
    # P(vote = +1 | <theta*, x> = t) must match sigma_bar at the bar margin
    t_orig = 0.5 * grid  # <theta*, x> when <theta_bar, x> = grid value
    original = binom_tail_transform(link_eval(LR, t_orig), 3)
    assert np.max(np.abs(original - link_eval(bar, grid))) < 1e-10
    assert link_eval(bar, 0.0) == 0.5
    assert np.max(np.abs(link_eval(bar, grid) + link_eval(bar, -grid) - 1)) < 1e-9


def test_matching_link_upper_tail_is_mirror_symmetric():
    # at m = 64, T_m(sigma*(s t)) rounds to 1 in the upper tail; those knots
    # come from the lower tail instead, so the link is symmetric to round-off
    link = construct_matching_link(LR, np.array([2.0, 0.0]), 64,
                                   np.array([1.0, 0.0]), 8)
    assert mirror_symmetric(link.grid, link.values)
    assert link.symmetric


def test_matching_link_rejects_non_collinear():
    with pytest.raises(ValueError):
        construct_matching_link(LR, np.array([1.0, 0.0]), 3,
                                np.array([1.0, 0.1]), 1)


# ------------------------------ gap function -------------------------------


def _gap(mode, t_star, m, model_link=LR, links=None, engine=None):
    links = links or (LR,) * m
    engine = engine or ZExpectationEngine(dist=GAUSS3)
    return GapFunction(mode=mode, t_star=t_star, m=m, model_link=model_link,
                       true_links=links, engine=engine)


def test_gap_zero_at_t_star_when_well_specified():
    g = _gap(GapMode.MULTI_LABEL, t_star=1.7, m=3)
    assert gap_eval(g, 1.7) == pytest.approx(0.0, abs=1e-9)


def test_gap_negative_at_zero_and_increasing():
    g = _gap(GapMode.MAJORITY_VOTE, t_star=1.0, m=3)
    engine = g.engine
    # at t=0 both link terms equal 1/2 and E[Z]=0, so h(0) = -E[Z phi(t* Z)]
    expected = -engine.expect(lambda z: z * g.phi(1.0 * z))
    assert gap_eval(g, 0.0) == pytest.approx(expected, abs=1e-9)
    assert gap_eval(g, 0.0) < 0
    ts = np.linspace(0.0, 4.0, 9)
    vals = [gap_eval(g, t) for t in ts]
    assert np.all(np.diff(vals) > 0)


def test_gap_quadrature_matches_monte_carlo():
    mc = _MonteCarloEngine(dist=GAUSS3, mc_n=10_000_000, mc_seed=3)
    g_quad = _gap(GapMode.MULTI_LABEL, t_star=1.0, m=1)
    g_mc = _gap(GapMode.MULTI_LABEL, t_star=1.0, m=1, engine=mc)
    t = 1.4
    # the integrand is bounded by |z|, so 3 standard errors of E|Z|^2-ish scale
    se = np.sqrt(1.0 / mc.mc_n)
    assert gap_eval(g_quad, t) == pytest.approx(gap_eval(g_mc, t), abs=3 * se)


def test_solve_tm_well_specified_identity():
    for t_star in (0.5, 2.0):
        g = _gap(GapMode.MULTI_LABEL, t_star=t_star, m=2)
        assert solve_tm(g) == pytest.approx(t_star, abs=1e-8)
        g1 = _gap(GapMode.MAJORITY_VOTE, t_star=t_star, m=1)
        assert solve_tm(g1) == pytest.approx(t_star, abs=1e-8)


def test_solve_tm_majority_increases_with_m():
    roots = [solve_tm(_gap(GapMode.MAJORITY_VOTE, t_star=2.0, m=m))
             for m in (1, 3, 9, 27)]
    assert np.all(np.diff(roots) > 0)
    assert roots[0] == pytest.approx(2.0, abs=1e-8)


def test_solve_tm_bracket_failure():
    flat = tabulated_link([-1.0, 0.0, 1.0], [0.5, 0.5, 0.5])
    g = _gap(GapMode.MULTI_LABEL, t_star=1.0, m=1, model_link=flat)
    with pytest.raises(BracketNotFound):
        solve_tm(g)


# --------------------------- covariance predictions ------------------------


def _model(t_star, m, links=None, d=3):
    theta = np.zeros(d)
    theta[0] = t_star
    return ModelSpec(theta_star=theta, links=links or (LR,) * m,
                     covariates=isotropic_gaussian(d))


def test_well_specified_equals_multilabel_exact():
    model = _model(2.0, 4)
    ws = predict_covariance(PredictionKind.WELL_SPECIFIED, model)
    ml = predict_covariance(PredictionKind.MULTI_LABEL_EXACT, model)
    assert ws.variance_multiplier == pytest.approx(
        ml.variance_multiplier, abs=1e-9)


def test_majority_m1_equals_well_specified():
    model = _model(2.0, 1)
    ws = predict_covariance(PredictionKind.WELL_SPECIFIED, model)
    mv = predict_covariance(PredictionKind.MAJORITY_VOTE_EXACT, model)
    assert mv.variance_multiplier == pytest.approx(
        ws.variance_multiplier, abs=1e-9)
    assert mv.t_m == pytest.approx(2.0, abs=1e-8)


def test_crowd_all_ones_matches_well_specified():
    model = _model(1.0, 3)
    ws = predict_covariance(PredictionKind.WELL_SPECIFIED, model)
    crowd = predict_covariance(PredictionKind.CROWDSOURCING, model)
    sp = predict_covariance(PredictionKind.SEMIPARAMETRIC, model)
    assert crowd.variance_multiplier == pytest.approx(
        ws.variance_multiplier, abs=1e-9)
    assert sp.variance_multiplier == pytest.approx(
        ws.variance_multiplier, abs=1e-9)


def test_crowd_prediction_rejects_tabulated_true_links():
    grid = np.linspace(-3.0, 3.0, 13)
    tab = tabulated_link(grid, 0.5 + 0.5 * np.tanh(grid))
    with pytest.raises(ValueError, match="logistic"):
        predict_covariance(PredictionKind.CROWDSOURCING, _model(1.0, 2, links=(tab, LR)))


def test_crowd_prediction_matches_crowd_loss_sandwich():
    # the crowd loss at theta* on one large sample: per-row gradient
    # coefficients c_i and Hessian weights h_i give the multiplier
    # E[c^2] / (t*^2 E[h]^2) (Z and the orthogonal covariates are independent);
    # its delta-method standard error sets the bound
    model = _model(1.0, 3, links=tuple(scaled_logistic_link(a) for a in (0.5, 1.0, 2.0)))
    n, t_star = 400_000, model.t_star
    ds = sample_dataset(model, n, seed=12)
    spec = LossSpec(mode=LossMode.CROWD_SCALED, links=model.links)
    _, coef, w = _reduce(spec, ds)(ds.X @ model.theta_star)
    v, h = (coef * n * model.m) ** 2, w * n * model.m
    a, b = v.mean(), h.mean()
    empirical = a / (t_star * b) ** 2
    influence = ((v - a) / b ** 2 - 2.0 * a * (h - b) / b ** 3) / t_star ** 2
    se = influence.std(ddof=1) / np.sqrt(n)
    pred = predict_covariance(PredictionKind.CROWDSOURCING, model).variance_multiplier
    assert 4.5 * se <= 0.02 * pred  # resolves an error of a few percent
    assert abs(empirical - pred) <= 4.5 * se, (empirical, pred, se)


def test_multilabel_multiplier_scales_exactly_one_over_m():
    mults = {m: predict_covariance(
        PredictionKind.MULTI_LABEL_EXACT, _model(1.5, m)).variance_multiplier
        for m in (1, 2, 4, 8)}
    for m in (2, 4, 8):
        assert mults[m] * m == pytest.approx(mults[1], abs=1e-9)


def test_prediction_matrix_structure():
    model = _model(1.0, 2, d=4)
    pred = predict_covariance(PredictionKind.WELL_SPECIFIED, model)
    cov = pred.covariance
    u = model.u_star
    assert np.max(np.abs(cov @ u)) < 1e-10
    w = np.linalg.eigvalsh(cov)
    assert np.all(w >= -1e-12)
    # Gaussian covariates: the projected pseudo-inverse is the projector
    p_perp = np.eye(4) - np.outer(u, u)
    assert np.allclose(cov, pred.variance_multiplier * p_perp, atol=1e-10)


def test_prediction_beta_regular_base():
    u = np.array([1.0, 0.0, 0.0])
    dist = beta_regular(3, 2.0, u)
    model = ModelSpec(theta_star=2.0 * u, links=(LR,), covariates=dist)
    pred = predict_covariance(PredictionKind.WELL_SPECIFIED, model)
    p_perp = np.eye(3) - np.outer(u, u)
    assert np.allclose(pred.covariance, pred.variance_multiplier * p_perp,
                       atol=1e-10)


def test_scaled_true_links_are_recalibrated_not_floored():
    # identical scaled-logistic truth is representable by the logistic model
    # after rescaling the norm: t_m = alpha t*, the pointwise link error
    # vanishes, and the multiplier keeps the exact 1/m decay
    mults = []
    for m in (1, 4, 16):
        model = _model(2.0, m, links=(scaled_logistic_link(3.0),) * m)
        pred = predict_covariance(PredictionKind.MULTI_LABEL_EXACT, model)
        assert pred.t_m == pytest.approx(6.0, abs=1e-7)
        mults.append(pred.variance_multiplier)
    assert mults[1] * 4 == pytest.approx(mults[0], rel=1e-8)
    assert mults[2] * 16 == pytest.approx(mults[0], rel=1e-8)


def test_unrepresentable_average_link_has_variance_floor():
    # a mixture of very different slopes is not a logistic in disguise, so
    # the squared link error contributes an m-independent variance floor
    def links(m):
        return tuple(scaled_logistic_link(a)
                     for a in ([0.3, 5.0] * m)[:m])

    mults = {m: predict_covariance(
        PredictionKind.MULTI_LABEL_EXACT,
        _model(2.0, m, links=links(m))).variance_multiplier
        for m in (2, 16)}
    # decays much slower than 1/m ...
    assert mults[16] / mults[2] > 1.5 * (2 / 16)
    # ... and stays above the floor extrapolated from the 1/m part
    b_over_m = (mults[2] - mults[16]) / (1 / 2 - 1 / 16)
    floor = mults[16] - b_over_m / 16
    assert floor > 0.05


# ------------------------------ pseudo-inverse -----------------------------


def test_pseudo_inverse_projectors():
    u = np.array([3.0, 4.0]) / 5.0
    A = np.outer(u, u)
    B = np.eye(2) - A
    assert np.allclose(pseudo_inverse_decomp(A, B), np.eye(2), atol=1e-12)


def test_pseudo_inverse_zero_block():
    A = np.array([[2.0, 0.5], [0.5, 1.0]])
    out = pseudo_inverse_decomp(A, np.zeros((2, 2)))
    assert np.allclose(out, np.linalg.inv(A), atol=1e-12)


def test_pseudo_inverse_random_orthogonal_ranges():
    rng = np.random.default_rng(21)
    Q, _ = np.linalg.qr(rng.standard_normal((5, 5)))
    A = Q[:, :2] @ np.diag([2.0, 0.5]) @ Q[:, :2].T
    B = Q[:, 2:] @ np.diag([1.0, 3.0, 0.7]) @ Q[:, 2:].T
    assert np.allclose(pseudo_inverse_decomp(A, B),
                       np.linalg.inv(A + B), atol=1e-10)


def test_pseudo_inverse_rejects_overlapping_ranges():
    A = np.eye(3)
    with pytest.raises(NotOrthogonal):
        pseudo_inverse_decomp(A, A)


# ------------------------------ large-m limits -----------------------------


def test_largem_constant_a_logistic_beta_one():
    c = largem_constants(1.0, np.sqrt(2 / np.pi), LR, 0.25)
    # int_0^inf z/(1+e^z) dz = pi^2/12; int_0^inf z Phi(-z/2) dz = 1
    assert c["a"] == pytest.approx(np.sqrt(np.pi ** 2 / 12.0), abs=1e-9)
    assert c["b"] > 0
    # independent wide trapezoid oracle for a
    z = np.linspace(1e-6, 60, 400_001)
    num = np.trapezoid(z * link_eval(LR, -z), z)
    den = np.trapezoid(z * stats.norm.cdf(-0.5 * z), z)
    assert c["a"] == pytest.approx(np.sqrt(num / den), abs=1e-6)


def test_largem_constant_a_increases_with_steeper_average_slope():
    # a steeper average link at 0 shrinks the Phi(-2 s0 z) denominator
    # integral, so the norm-growth constant a increases
    a1 = largem_constants(1.0, 1.0, LR, 0.25)["a"]
    a2 = largem_constants(1.0, 1.0, LR, 0.5)["a"]
    assert a2 > a1


def test_tz_limit_lemma():
    # convergence rate is ~ int z^beta f / (t int z^{beta-1} f); with the
    # Gamma-tailed covariates at beta=2 the logistic bump only reaches ~1.2%
    # at t=200, so heavier-beta cases use a faster-decaying test function
    logistic_bump = lambda z: link_derivative(LR, z)
    gauss_bump = lambda z: np.exp(-0.5 * z * z)
    cases = [
        (GAUSS3, logistic_bump),
        (beta_regular(3, 0.5, np.array([1.0, 0, 0])), gauss_bump),
        (beta_regular(3, 2.0, np.array([1.0, 0, 0])), gauss_bump),
    ]
    for dist, f in cases:
        out = largem_tz_limit_check(dist, f, 200.0)
        assert out["lhs"] == pytest.approx(out["rhs"], rel=0.01)


def test_tz_limit_lemma_slowly_decaying_f():
    # exp(-z/30) has not decayed by z = 80, where the right side first stops;
    # int_0^inf z^{beta-1} e^{-z/s} dz = Gamma(beta) s^beta
    f = lambda z: np.exp(-z / 30.0)
    for dist in (GAUSS3, beta_regular(3, 0.5, np.array([1.0, 0, 0])),
                 beta_regular(3, 2.0, np.array([1.0, 0, 0]))):
        beta = dist.noise_exponent
        out = largem_tz_limit_check(dist, f, 30_000.0)
        exact = dist.c_z * math.gamma(beta) * 30.0 ** beta
        assert out["rhs"] == pytest.approx(exact, rel=1e-10)
        assert out["lhs"] == pytest.approx(exact, rel=0.01)
    # int_0^inf dz / (1 + z) diverges
    with pytest.raises(DivergentIntegral):
        largem_tz_limit_check(GAUSS3, lambda z: 1.0 / (1.0 + z), 200.0)


def test_rho_limit_lemma_constant_f():
    out = largem_rho_limit_check(GAUSS3, lambda z: np.ones_like(z), 1.0,
                                 LR, m=1024)
    assert out["lhs"] == pytest.approx(out["rhs"], rel=0.05)


def test_rho_limit_lemma_m1_exact_form():
    # at m=1: m^{beta/2} E[f(|Z|)(1 - rho_1(c Z))] with rho_1 = the link itself
    eng = ZExpectationEngine(dist=GAUSS3)
    c = 1.3
    direct = eng.expect(
        lambda z: np.abs(z) * (1.0 - link_eval(LR, c * np.abs(z))))
    out = largem_rho_limit_check(GAUSS3, lambda z: z, c, LR, m=1)
    assert out["lhs"] == pytest.approx(direct, abs=1e-8)
