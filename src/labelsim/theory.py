"""Closed-form asymptotics for the noisy-label estimators.

Evaluates majority-vote probabilities, the binomial tail transform and the
link construction that makes two (link, norm, labeler-count) configurations
observationally equivalent, calibration gap functions and their roots t_m,
asymptotic covariance multipliers for each estimator, and the large-m limit
constants a and b.

Every integral is one fixed panel rule (ZExpectationEngine, and
_halfline_integral for plain half-line integrals): Gauss-Legendre panels on
a doubling ladder that starts below the smallest feature width of the
integrands, split at the kinks of tabulated links, with a Gauss-Jacobi
first panel for the z^(beta-1) factor of the |Z| density. An integrand is
called once, on the whole node array. The same panels at half the order
give every prediction its error estimate.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property, lru_cache

import numpy as np
from scipy import optimize, special, stats

from .links import (
    CovariateDistribution,
    CovariateKind,
    LinkFamily,
    LinkSpec,
    ModelSpec,
    SYMMETRY_TOL,
    TheoryPrediction,
    group_links,
    link_derivative,
    link_eval,
    logistic_link,
    tabulated_link,
)

__all__ = [
    "BracketNotFound",
    "DivergentIntegral",
    "NotOrthogonal",
    "ZExpectationEngine",
    "GapMode",
    "GapFunction",
    "PredictionKind",
    "rho_m",
    "binom_tail_transform",
    "inverse_binom_tail_transform",
    "construct_matching_link",
    "gap_eval",
    "solve_tm",
    "predict_covariance",
    "largem_constants",
    "pseudo_inverse_decomp",
    "largem_tz_limit_check",
    "largem_rho_limit_check",
]

ORDER = 24             # Gauss points per panel; the error estimate uses ORDER // 2
LADDER_START = 0.125   # first breakpoint, as a fraction of the feature width
TAIL_MASS = 1e-25      # mass of |Z| beyond the last breakpoint
HALFLINE_EXTENT = 80.0  # half-line integrals first stop at this many decay scales
HALFLINE_DOUBLINGS = 40  # and double that stop at most this many times
TAIL_SHARE = 1e-10     # largest share of a half-line integral its last panel may hold
ROOT_XTOL = 1e-12
ROOT_RTOL = 4 * np.finfo(float).eps
ROUNDOFF = 1e-12       # relative floor of the error estimates (round-off in
                       # the node sums, the links and the binomial tails)


class BracketNotFound(RuntimeError):
    pass


class DivergentIntegral(RuntimeError):
    pass


class NotOrthogonal(ValueError):
    pass


# ---------------------------------------------------------------------------
# the panel rule


@lru_cache(maxsize=None)
def _jacobi_rule(order: int, exponent: float) -> tuple[np.ndarray, np.ndarray]:
    """Gauss nodes and weights on [-1, 1] for the weight (1 + x)^exponent."""
    if exponent == 0.0:
        return np.polynomial.legendre.leggauss(order)
    return special.roots_jacobi(order, 0.0, exponent)


def _ladder(width: float, top: float, kinks=()) -> np.ndarray:
    """Panel breakpoints on (0, top]: a doubling ladder from LADDER_START *
    width, split at the kinks that fall inside."""
    start = LADDER_START * width
    steps = start * 2.0 ** np.arange(max(math.ceil(math.log2(top / start)), 0))
    kinks = np.asarray(kinks, dtype=float)
    breaks = np.unique(np.concatenate(
        [steps[steps < top], kinks[(kinks > 0) & (kinks < top)], [top]]))
    # a kink within round-off of a ladder step would only add a sliver panel
    return breaks[np.diff(breaks, prepend=0.0) > 1e-12 * breaks]


def _panel_rule(breaks: np.ndarray, exponent: float,
                order: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes z and weights w with w @ g(z) ~ int_0^breaks[-1] z^exponent g(z) dz.

    Gauss-Jacobi on [0, breaks[0]] integrates the z^exponent factor exactly;
    the other panels are Gauss-Legendre with z^exponent folded into w.
    """
    x, w = _jacobi_rule(order, exponent)
    half = 0.5 * breaks[0]
    z0, w0 = half * (1.0 + x), w * half ** (exponent + 1.0)
    x, w = _jacobi_rule(order, 0.0)
    lo, half = breaks[:-1, None], 0.5 * np.diff(breaks)[:, None]
    z1 = (lo + half * (1.0 + x)).ravel()
    w1 = (half * w).ravel() * z1 ** exponent
    return np.concatenate([z0, z1]), np.concatenate([w0, w1])


def _z_cutoff(dist: CovariateDistribution) -> float:
    """The point beyond which |Z| has mass TAIL_MASS."""
    if dist.kind is CovariateKind.ISOTROPIC_GAUSSIAN:
        return math.sqrt(2.0) * float(special.erfcinv(TAIL_MASS))
    return float(special.gammainccinv(dist.beta, TAIL_MASS))


@dataclass(frozen=True)
class ZExpectationEngine:
    """Computes E[f(Z)] for the signed margin Z of a covariate distribution.

    E[f(Z)] = int_0^inf (f(z) + f(-z)) / 2 p(z) dz, with p the density of
    |Z|, by one fixed panel rule: a doubling ladder of panels from width/8
    to the point beyond which |Z| has mass 1e-25, split at ``kinks`` (points
    of |z| where an integrand is not smooth), ``order`` Gauss points per
    panel and a Gauss-Jacobi first panel for the z^(beta-1) factor of p.
    ``nodes`` holds +z and -z and ``weights`` the matching halves, so
    expect(f) = weights @ f(nodes) calls f once, on the whole node array.
    """

    dist: CovariateDistribution
    width: float = 1.0
    kinks: tuple[float, ...] = ()
    order: int = ORDER

    def __post_init__(self):
        if not self.width > 0 or self.order < 1:
            raise ValueError("need width > 0 and order >= 1")

    def resolve(self, width: float, kinks=()) -> ZExpectationEngine:
        """This rule with its panels also resolving the given feature width
        and kinks."""
        kinks = tuple(sorted(set(self.kinks).union(float(k) for k in kinks)))
        return dataclasses.replace(self, width=min(self.width, width), kinks=kinks)

    def coarse(self) -> ZExpectationEngine:
        """The same panels at half the order: the lower level of the error
        estimate."""
        return dataclasses.replace(self, order=max(self.order // 2, 1))

    @cached_property
    def _rule(self) -> tuple[np.ndarray, np.ndarray]:
        dist = self.dist
        exponent = dist.noise_exponent - 1.0
        breaks = _ladder(self.width, _z_cutoff(dist), self.kinks)
        z, w = _panel_rule(breaks, exponent, self.order)
        # the rule carries z^exponent; p(z) / z^exponent is smooth at 0
        w = w * dist.z_abs_density(z) / z ** exponent
        return np.concatenate([z, -z]), 0.5 * np.concatenate([w, w])

    @property
    def nodes(self) -> np.ndarray:
        return self._rule[0]

    @property
    def weights(self) -> np.ndarray:
        return self._rule[1]

    def expect(self, f) -> float:
        """E[f(Z)]; f is called once, on the whole node array."""
        return float(self.weights @ f(self.nodes))


def _link_width(link: LinkSpec) -> float:
    """Margin scale over which a link changes; a tabulated link's
    structure is resolved by its kinks instead."""
    if link.family is LinkFamily.TABULATED_MONOTONE:
        return 1.0
    return 1.0 / link.alpha


def _link_kinks(links, scale: float) -> tuple[float, ...]:
    """|knots| / scale of the tabulated links: where sigma(scale z) has kinks."""
    return tuple(float(abs(x)) / scale for link in links
                 if link.family is LinkFamily.TABULATED_MONOTONE
                 for x in link.grid)


def _resolve_for_links(engine: ZExpectationEngine, links, scale: float,
                       divisor: float = 1.0) -> ZExpectationEngine:
    """Engine whose panels resolve sigma(scale z) for every given link, with
    the feature width further divided by ``divisor``."""
    width = min(_link_width(link) for link in links) / (scale * divisor)
    return engine.resolve(width, _link_kinks(links, scale))


# ---------------------------------------------------------------------------
# majority-vote probabilities


def _as_links(true_links, m: int) -> list[LinkSpec]:
    if isinstance(true_links, LinkSpec):
        return [true_links] * m
    links = list(true_links)
    if len(links) != m:
        raise ValueError("need one link per labeler")
    return links


def _link_probs(links, s) -> tuple[np.ndarray, np.ndarray]:
    """P(label +1 | margin s) of each distinct link (groups x points), and
    the number of labelers sharing each."""
    distinct, index = group_links(links)
    s = np.atleast_1d(np.asarray(s, dtype=float))
    probs = np.array([link_eval(link, s) for link in distinct])
    return probs, np.bincount(index)


def _binom_tails(p, m: int):
    """(P(vote +1), P(vote -1)) of the majority of m i.i.d. votes that are
    +1 with probability p, exact ties broken by a fair coin. Each tail is
    computed directly, so neither loses relative accuracy as 1 - other."""
    k = m // 2
    if m % 2 == 1:
        return stats.binom.sf(k, m, p), stats.binom.cdf(k, m, p)
    tie = 0.5 * stats.binom.pmf(k, m, p)
    return stats.binom.sf(k, m, p) + tie, stats.binom.cdf(k - 1, m, p) + tie


def _convolve_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise full convolution of two (points x K) arrays."""
    if a.shape[1] < b.shape[1]:
        a, b = b, a
    out = np.zeros((a.shape[0], a.shape[1] + b.shape[1] - 1))
    for j in range(b.shape[1]):
        out[:, j:j + a.shape[1]] += b[:, j:j + 1] * a
    return out


def _poisson_binomial_majority(probs: np.ndarray, counts: np.ndarray):
    """Majority tails, as _binom_tails, for independent groups of votes:
    counts[g] votes that are +1 with probability probs[g] (groups x points).

    The vote-count distribution (points x (m + 1)) is the convolution of one
    binomial per group, vectorized over the points; exact up to rounding.
    """
    dist = np.ones((probs.shape[1], 1))
    for p, c in zip(probs, counts):
        dist = _convolve_rows(dist, stats.binom.pmf(np.arange(c + 1), c, p[:, None]))
    m = dist.shape[1] - 1
    k = m // 2
    plus = dist[:, k + 1:].sum(axis=1)
    if m % 2 == 1:
        return plus, dist[:, :k + 1].sum(axis=1)
    tie = 0.5 * dist[:, k]
    return plus + tie, dist[:, :k].sum(axis=1) + tie


def _vote_tails(probs: np.ndarray, counts: np.ndarray):
    """(P(majority vote +1), P(majority vote -1)) at each point."""
    if counts.size == 1:
        return _binom_tails(probs[0], int(counts[0]))
    return _poisson_binomial_majority(probs, counts)


def rho_m(t, m: int, true_links):
    """P(tie-broken majority vote = sign(t) | margin = t), in [1/2, 1].

    For symmetric links this is even in t and nondecreasing in |t|.
    """
    if m < 1:
        raise ValueError("need m >= 1")
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    plus, minus = _vote_tails(*_link_probs(_as_links(true_links, m), t_arr))
    out = np.where(t_arr > 0, plus, np.where(t_arr < 0, minus, 0.5))
    return float(out[0]) if np.isscalar(t) else out


def binom_tail_transform(p, m: int):
    """T_m(p): majority-vote accuracy of m i.i.d. votes of accuracy p."""
    p_arr = np.asarray(p, dtype=float)
    if np.any(p_arr < 0) or np.any(p_arr > 1):
        raise ValueError("p must lie in [0, 1]")
    out = _binom_tails(p_arr, m)[0]
    return float(out) if np.isscalar(p) else out


def inverse_binom_tail_transform(q, m: int):
    """T_m^{-1}(q) for all q at once, exact up to rounding.

    With h = ceil(m / 2), T_m(p) = P(Binomial(2h - 1, p) >= h) = I_p(h, h),
    the regularized incomplete beta function (for even m a tie is a fair
    coin, so T_m = T_{m-1}); its inverse in p is scipy's betaincinv.
    """
    q_arr = np.asarray(q, dtype=float)
    if np.any(q_arr < 0) or np.any(q_arr > 1):
        raise ValueError("q must lie in [0, 1]")
    h = (m + 1) // 2
    out = special.betaincinv(h, h, q_arr)
    return float(out) if np.isscalar(q) else out


def construct_matching_link(sigma_star: LinkSpec, theta_star, m: int,
                            theta_bar, m_bar: int, grid=None) -> LinkSpec:
    """Tabulated link making (sigma_bar, theta_bar, m_bar) produce the same
    majority-vote label distribution as (sigma_star, theta_star, m).

    sigma_bar(t) = T_{m_bar}^{-1}(T_m(sigma_star(s t))) with
    s = ||theta_star|| / ||theta_bar||; requires collinear directions.
    ``grid`` (default 801 knots over 12 / s either side of 0) must be
    uniform, as every tabulated grid is; a non-uniform one raises
    ``ValueError``. For a symmetric sigma_star, T_k(1 - p) = 1 - T_k(p)
    gives sigma_bar(t) = 1 - sigma_bar(-t): a knot t > 0 whose value is
    further than SYMMETRY_TOL / 2 from that mirror image, because T_m
    rounded to 1 in the upper tail, takes it from the lower tail instead,
    so the link is symmetric to round-off.
    """
    theta_star = np.asarray(theta_star, dtype=float)
    theta_bar = np.asarray(theta_bar, dtype=float)
    ns, nb = np.linalg.norm(theta_star), np.linalg.norm(theta_bar)
    if ns == 0 or nb == 0:
        raise ValueError("parameter vectors must be nonzero")
    if np.linalg.norm(theta_star / ns - theta_bar / nb) > 1e-12:
        raise ValueError("theta_bar must be collinear with theta_star")
    scale = ns / nb
    if grid is None:
        half = 12.0 / scale
        grid = np.linspace(-half, half, 801)
    grid = np.asarray(grid, dtype=float)
    q = binom_tail_transform(link_eval(sigma_star, scale * grid), m)
    values = inverse_binom_tail_transform(q, m_bar)
    if sigma_star.symmetric:
        upper = np.flatnonzero(grid > 0)
        q_low = binom_tail_transform(link_eval(sigma_star, -scale * grid[upper]), m)
        mirror = 1.0 - inverse_binom_tail_transform(q_low, m_bar)
        lost = np.abs(values[upper] - mirror) > 0.5 * SYMMETRY_TOL
        values[upper[lost]] = mirror[lost]
    # guard rounding noise so the tabulated validator accepts
    values = np.maximum.accumulate(np.clip(values, 0.0, 1.0))
    return tabulated_link(grid, values)


# ---------------------------------------------------------------------------
# gap function and its root t_m


class GapMode(Enum):
    MULTI_LABEL = "multilabel"
    MAJORITY_VOTE = "majority"


@dataclass(frozen=True)
class GapFunction:
    """h(t) = E[sigma(tZ) Z (1 - phi(t* Z))] - E[sigma(-tZ) Z phi(t* Z)].

    phi(s) = P(label +1 | margin s): the average of the true links in
    multi-label mode, the tie-broken majority probability in majority mode.
    The population minimizer of the corresponding loss is t_m u* with
    h(t_m) = 0; h is strictly increasing.

    The engine's panels are resolved to the width of phi(t* z), about
    1/(t* sqrt(m)) for majority vote, and phi on its nodes is computed once
    (it does not depend on t), so each h(t) is one link evaluation and a
    dot product. The model link needs no width of its own: sigma(t_m z)
    follows phi(t* z), whatever the scale of sigma, because t_m absorbs it.
    """

    mode: GapMode
    t_star: float
    m: int
    model_link: LinkSpec
    true_links: tuple[LinkSpec, ...]
    engine: ZExpectationEngine

    def __post_init__(self):
        if self.t_star <= 0:
            raise ValueError("t_star must be positive")
        links = tuple(_as_links(self.true_links, self.m))
        object.__setattr__(self, "true_links", links)
        divisor = math.sqrt(self.m) if self.mode is GapMode.MAJORITY_VOTE else 1.0
        object.__setattr__(self, "engine", _resolve_for_links(
            self.engine, group_links(links)[0], self.t_star, divisor))

    def phi(self, s):
        probs, counts = _link_probs(self.true_links, s)
        if self.mode is GapMode.MULTI_LABEL:
            out = counts @ probs / self.m
        else:
            out = _vote_tails(probs, counts)[0]
        return float(out[0]) if np.isscalar(s) else out

    @cached_property
    def _group_probs(self) -> tuple[np.ndarray, np.ndarray]:
        return _link_probs(self.true_links, self.t_star * self.engine.nodes)

    @cached_property
    def label_probs(self) -> tuple[np.ndarray, np.ndarray]:
        """(phi, 1 - phi) at t* z on the engine's nodes; in majority mode
        both vote tails are computed directly."""
        probs, counts = self._group_probs
        if self.mode is GapMode.MULTI_LABEL:
            phi = counts @ probs / self.m
            return phi, 1.0 - phi
        return _vote_tails(probs, counts)

    @cached_property
    def coarse(self) -> GapFunction:
        """This gap function on the engine's coarse rule."""
        return dataclasses.replace(self, engine=self.engine.coarse())

    @cached_property
    def root(self) -> tuple[float, int]:
        """(t_m, bracket expansions + Brent iterations); see solve_tm."""
        lo, f_lo = 0.0, gap_eval(self, 0.0)
        if f_lo >= 0.0:
            return 0.0, 0
        hi = max(self.t_star, 1e-3)
        expansions = 0
        while gap_eval(self, hi) < 0.0:
            lo = hi
            hi *= 2.0
            expansions += 1
            if hi > 1e6:
                raise BracketNotFound(
                    "gap function stays negative up to the bracket cap 1e6")
        t_m, result = optimize.brentq(lambda t: gap_eval(self, t), lo, hi,
                                      xtol=ROOT_XTOL, rtol=ROOT_RTOL,
                                      full_output=True)
        # majority vote sharpens the labels, so the model link's margin at
        # the root, alpha t_m, is at least t* (alpha = 1 for a tabulated link)
        sigma = self.model_link
        alpha = 1.0 if sigma.family is LinkFamily.TABULATED_MONOTONE else sigma.alpha
        if (self.mode is GapMode.MAJORITY_VOTE
                and alpha * t_m < self.t_star * (1.0 - 1e-6)):
            raise ValueError(
                f"majority-vote root alpha*t_m={alpha * t_m:.6g} fell below "
                f"t*={self.t_star:.6g}")
        return t_m, expansions + result.iterations


def gap_eval(g: GapFunction, t: float) -> float:
    # phi is cached on the engine's nodes, which expect passes to the integrand
    plus, minus = g.label_probs
    sigma = g.model_link
    return g.engine.expect(lambda z: z * (link_eval(sigma, t * z) * minus
                                          - link_eval(sigma, -t * z) * plus))


def _gap_slope(g: GapFunction, t: float) -> float:
    """h'(t) = E[Z^2 (sigma'(tZ) (1 - phi) + sigma'(-tZ) phi)] > 0."""
    plus, minus = g.label_probs
    sigma = g.model_link
    return g.engine.expect(lambda z: z * z * (link_derivative(sigma, t * z) * minus
                                              + link_derivative(sigma, -t * z) * plus))


def solve_tm(g: GapFunction) -> float:
    """Unique root of the gap function, found by doubling the upper bracket
    from t* and refining with Brent's method to 1e-12. The root and its
    iteration count are solved once per gap function (``g.root``)."""
    return g.root[0]


# ---------------------------------------------------------------------------
# covariance predictions


class PredictionKind(Enum):
    MULTI_LABEL_EXACT = "multilabel-exact"
    MAJORITY_VOTE_EXACT = "majority-exact"
    WELL_SPECIFIED = "well-specified"
    SEMIPARAMETRIC = "semiparametric"
    CROWDSOURCING = "crowdsourcing"


def _psd_pinv(A: np.ndarray) -> np.ndarray:
    w, V = np.linalg.eigh(A)
    top = float(w.max(initial=0.0))
    cutoff = 1e-12 * max(top, 1e-300)
    inv = np.where(w > cutoff, 1.0 / np.where(w > cutoff, w, 1.0), 0.0)
    return (V * inv) @ V.T


def pseudo_inverse_decomp(A, B) -> np.ndarray:
    """(A + B)^{-1} = A^+ + B^+ for PSD A, B with orthogonal ranges."""
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    if np.linalg.norm(A @ B) > 1e-10 or np.linalg.norm(B @ A) > 1e-10:
        raise NotOrthogonal("A and B must have orthogonal ranges (AB = BA = 0)")
    return _psd_pinv(A) + _psd_pinv(B)


def _projected_pinv(dist: CovariateDistribution, u_star: np.ndarray) -> np.ndarray:
    p_perp = np.eye(dist.d) - np.outer(u_star, u_star)
    return _psd_pinv(p_perp @ dist.covariance() @ p_perp)


def _multilabel_multiplier(g: GapFunction, t: float) -> float:
    sigma, m = g.model_link, g.m
    plus, minus = g.label_probs
    probs, counts = g._group_probs
    label_var = counts @ (probs * (1.0 - probs))  # sum_j p_j (1 - p_j)

    def le_sq(z):
        le = link_eval(sigma, t * z) * minus - link_eval(sigma, -t * z) * plus
        return le * le

    def he(z):
        return (link_derivative(sigma, -t * z) * plus
                + link_derivative(sigma, t * z) * minus)

    def v(z):
        span = link_eval(sigma, t * z) + link_eval(sigma, -t * z)
        return label_var * span * span

    e = g.engine.expect
    return (e(le_sq) + e(v) / m ** 2) / (t ** 2 * e(he) ** 2)


def _majority_multiplier(g: GapFunction, t: float) -> float:
    sigma = g.model_link
    plus, minus = g.label_probs

    def num(z):
        return (link_eval(sigma, -t * z) ** 2 * plus
                + link_eval(sigma, t * z) ** 2 * minus)

    e = g.engine.expect
    den = e(lambda z: link_derivative(sigma, t * z))
    return e(num) / (t ** 2 * den ** 2)


def _fixed_norm_multiplier(kind: PredictionKind, model: ModelSpec,
                           engine: ZExpectationEngine) -> float:
    """Multiplier of the kinds whose norm is t* itself: the per-labeler link
    formula E[sum_j p_j (1 - p_j)] / (t*^2 E[sum_j sigma_j'(t* Z)]^2) with
    p_j = sigma_j(t* Z); well-specified needs every labeler on one link and
    raises ``ValueError`` otherwise.

    Semiparametric and crowdsourcing both fit with the true links (estimated
    consistently), whose loss has gradient coefficients of variance
    p_j (1 - p_j) and Hessian weights sigma_j'; for a scaled-logistic link
    sigma_j' = alpha_j p_j (1 - p_j), so variance and Hessian differ."""
    t_star, m = model.t_star, model.m
    distinct, index = group_links(model.links)
    counts = np.bincount(index)
    if kind is PredictionKind.WELL_SPECIFIED:
        if len(distinct) > 1:
            raise ValueError("well-specified theory needs one link shared by "
                             "every labeler")
        counts = np.ones(1)

    def label_var(z):
        p = np.array([link_eval(link, t_star * z) for link in distinct])
        return counts @ (p * (1.0 - p)) / counts.sum()

    def slope(z):
        return counts @ np.array([link_derivative(link, t_star * z)
                                  for link in distinct]) / counts.sum()

    return engine.expect(label_var) / (m * t_star ** 2 * engine.expect(slope) ** 2)


def predict_covariance(kind: PredictionKind, model: ModelSpec,
                       model_link: LinkSpec | None = None) -> TheoryPrediction:
    """Asymptotic covariance of sqrt(n)(u_hat - u*) for the requested estimator.

    Returns the scalar variance multiplier and the full matrix
    multiplier * (P_perp Sigma P_perp)^+; the multi-label and majority-vote
    kinds first solve for the population norm t_m of the misspecified fit
    under ``model_link`` (default logistic). Crowdsourcing reads each
    labeler's reliability from its scaled-logistic true link and equals
    semiparametric on the same model; tabulated true links raise
    ``ValueError``. Every integral uses the default ZExpectationEngine of
    the model's covariates, resolved to the links. Labelers with equal links
    are one integrand term weighted by their count. The error estimates
    compare with the coarse rule.
    """
    engine = ZExpectationEngine(dist=model.covariates)
    if model_link is None:
        model_link = logistic_link()
    t_star, m = model.t_star, model.m
    base = _projected_pinv(model.covariates, model.u_star)

    if kind in (PredictionKind.MULTI_LABEL_EXACT, PredictionKind.MAJORITY_VOTE_EXACT):
        if kind is PredictionKind.MULTI_LABEL_EXACT:
            mode, multiplier = GapMode.MULTI_LABEL, _multilabel_multiplier
        else:
            mode, multiplier = GapMode.MAJORITY_VOTE, _majority_multiplier
        g = GapFunction(mode=mode, t_star=t_star, m=m, model_link=model_link,
                        true_links=model.links, engine=engine)
        t_m = solve_tm(g)
        # the coarse rule's root, by one Newton step of its gap function
        coarse_t_m = t_m - gap_eval(g.coarse, t_m) / _gap_slope(g.coarse, t_m)
        mult = multiplier(g, t_m)
        coarse = multiplier(g.coarse, coarse_t_m)
        t_m_error = abs(t_m - coarse_t_m) + ROOT_XTOL + ROUNDOFF * t_m
        iterations = g.root[1]
    elif kind in (PredictionKind.WELL_SPECIFIED, PredictionKind.SEMIPARAMETRIC,
                  PredictionKind.CROWDSOURCING):
        if kind is PredictionKind.CROWDSOURCING and any(
                link.family is LinkFamily.TABULATED_MONOTONE for link in model.links):
            raise ValueError("crowd theory needs (scaled-)logistic true links")
        engine = _resolve_for_links(engine, group_links(model.links)[0], t_star)
        mult = _fixed_norm_multiplier(kind, model, engine)
        coarse = _fixed_norm_multiplier(kind, model, engine.coarse())
        t_m, t_m_error, iterations = t_star, 0.0, 0
    else:
        raise ValueError(f"unknown prediction kind: {kind}")
    return TheoryPrediction(kind=kind.value, t_m=t_m, variance_multiplier=mult,
                            covariance=mult * base, t_m_error=t_m_error,
                            multiplier_error=abs(mult - coarse) + ROUNDOFF * abs(mult),
                            root_iterations=iterations)


# ---------------------------------------------------------------------------
# large-m constants and limit lemmas


def _halfline_integral(f, exponent: float = 0.0, width: float = 1.0,
                       extent: float = 1.0, kinks=()) -> float:
    """int_0^inf z^exponent f(z) dz on the engine's panel rule.

    The ladder runs from width/8 to HALFLINE_EXTENT * extent, where
    ``extent`` is the integrand's expected decay scale, and its top doubles
    until the last panel holds at most TAIL_SHARE of the integral; f is
    called on the whole node array of each try. An integrand that has not
    decayed after HALFLINE_DOUBLINGS doublings raises DivergentIntegral.
    """
    top = HALFLINE_EXTENT * extent
    for _ in range(HALFLINE_DOUBLINGS + 1):
        z, w = _panel_rule(_ladder(width, top, kinks), exponent, ORDER)
        terms = w * f(z)
        total = float(terms.sum())
        if not np.isfinite(total):
            break
        if np.abs(terms[-ORDER:]).sum() <= TAIL_SHARE * abs(total):
            return total
        top *= 2.0
    raise DivergentIntegral(
        f"int_0^inf z^{exponent:g} f(z) dz has not converged by z = {z[-1]:.3g}")


def _link_extent(link: LinkSpec) -> float:
    """Margin beyond which a link is constant up to exponentially small terms."""
    if link.family is LinkFamily.TABULATED_MONOTONE:
        return float(np.max(np.abs(link.grid)))
    return _link_width(link)


def largem_constants(beta: float, c_z: float, sigma: LinkSpec,
                     avg_slope0: float) -> dict:
    """Constants a and b of the sqrt(m) majority-vote regime.

    a = (int z^beta sigma(-z) dz / int z^beta Phi(-2 s0 z) dz)^{1/(beta+1)}
    with s0 the average true-link slope at 0; b is the limit of
    m^{1-beta/2} C(t*) / t*^{beta-2}, whose numerator integrand combines
    sigma(-a z)^2 with the majority tail correction.
    """
    if beta <= 0 or avg_slope0 <= 0:
        raise ValueError("need beta > 0 and avg_slope0 > 0")
    s0 = avg_slope0
    width, extent = _link_width(sigma), _link_extent(sigma)
    phi_scale = 1.0 / (2.0 * s0)
    den_check = _halfline_integral(
        lambda z: link_derivative(sigma, z), beta - 1.0, width, extent,
        _link_kinks([sigma], 1.0))
    a_num = _halfline_integral(
        lambda z: link_eval(sigma, -z), beta, width, extent,
        _link_kinks([sigma], 1.0))
    a_den = _halfline_integral(
        lambda z: special.ndtr(-2.0 * s0 * z), beta, phi_scale, phi_scale)
    a = (a_num / a_den) ** (1.0 / (beta + 1.0))

    def b_integrand(z):
        s_neg = link_eval(sigma, -a * z)
        s_pos = link_eval(sigma, a * z)
        return (s_neg * s_neg
                + (s_pos * s_pos - s_neg * s_neg) * special.ndtr(-2.0 * s0 * z))

    b_num = c_z * _halfline_integral(
        b_integrand, beta - 1.0, min(width / a, phi_scale),
        max(extent / a, phi_scale), _link_kinks([sigma], a))
    b = a ** (2.0 * beta - 2.0) * b_num / (c_z * den_check) ** 2
    return {"a": float(a), "b": float(b)}


def largem_tz_limit_check(dist: CovariateDistribution, f, t: float) -> dict:
    """Both sides of lim_{t->inf} t^beta E[f(t|Z|)] = c_Z int z^{beta-1} f(z) dz.

    f must accept a numpy array of points (it is called on whole node
    arrays) and is expected to vary on a unit scale; the right side widens
    its range until f has decayed. The left side resolves the panels to the
    margin scale 1/t of f(t|Z|).
    """
    beta, c_z = dist.noise_exponent, dist.c_z
    engine = ZExpectationEngine(dist=dist, width=1.0 / t)
    lhs = t ** beta * engine.expect(lambda z: f(t * np.abs(z)))
    rhs = c_z * _halfline_integral(f, beta - 1.0)
    return {"lhs": float(lhs), "rhs": float(rhs)}


def largem_rho_limit_check(dist: CovariateDistribution, f, c: float,
                           true_links, m: int = 4096,
                           avg_slope0: float | None = None) -> dict:
    """Both sides of the majority-tail limit
    lim_m m^{beta/2} E[f(sqrt(m)|Z|)(1 - rho_m(c Z))]
      = c_Z int z^{beta-1} f(z) Phi(-2 s0 c z) dz,
    with rho_m evaluated exactly at the finite m on the left side. f must
    accept a numpy array of points (it is called on whole node arrays).
    """
    links = _as_links(true_links, m)
    distinct, index = group_links(links)
    if avg_slope0 is None:
        avg_slope0 = float(np.bincount(index) @ np.array(
            [link_derivative(link, 0.0) for link in distinct]) / m)
    beta, c_z = dist.noise_exponent, dist.c_z
    root_m = math.sqrt(m)
    # f(sqrt(m) |z|) and the vote tails at c z both change over ~1/sqrt(m)
    engine = _resolve_for_links(ZExpectationEngine(dist=dist, width=1.0 / root_m),
                                distinct, c, root_m)

    def lhs_integrand(z):
        plus, minus = _vote_tails(*_link_probs(links, c * z))
        wrong = np.where(z > 0, minus, plus)  # 1 - rho_m(c z)
        return f(root_m * np.abs(z)) * wrong

    lhs = root_m ** beta * engine.expect(lhs_integrand)
    phi_scale = 1.0 / (2.0 * avg_slope0 * c)
    rhs = c_z * _halfline_integral(
        lambda z: f(z) * special.ndtr(-2.0 * avg_slope0 * c * z), beta - 1.0,
        min(1.0, phi_scale), max(1.0, phi_scale))
    return {"lhs": float(lhs), "rhs": float(rhs)}
