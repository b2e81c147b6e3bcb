"""Closed-form asymptotics for the noisy-label estimators.

Evaluates majority-vote probabilities, the binomial tail transform and the
link construction that makes two (link, norm, labeler-count) configurations
observationally equivalent, calibration gap functions and their roots t_m,
asymptotic covariance multipliers for each estimator, and the large-m limit
constants a and b.

Each covariance is the M-estimation sandwich H^-1 B H^-1 (van der Vaart,
Asymptotic Statistics, ch. 5) of the estimator's fitted loss at its population
minimizer t_m u*: E[c^2] / (t_m^2 E[w]^2) along u*, for the per-row terms c
and w of the loss's count kernel (_kernel_moments). Every estimator takes one
path (predict_covariance): solve the root t_m of its gap function, then take
the sandwich there. Estimators differ only in their label groups.

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
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property, lru_cache

import numpy as np
from scipy import special

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
    link_terms,
    logistic_link,
    tabulated_link,
)

__all__ = [
    "BracketNotFound",
    "DivergentIntegral",
    "NotOrthogonal",
    "ZExpectationEngine",
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
ROOT_MAXITER = 100     # Newton or bisection steps of one t_m solve
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


def _link_probs(grouping, s) -> tuple[np.ndarray, np.ndarray]:
    """P(label +1 | margin s) of each distinct link (groups x points), and
    the number of labelers sharing each, given the links' ``group_links``
    (computed once per call or draw by the caller)."""
    distinct, index = grouping
    s = np.atleast_1d(np.asarray(s, dtype=float))
    probs = np.array([link_eval(link, s) for link in distinct])
    return probs, np.bincount(index)


def _binom_tail(p, m: int):
    """P(vote +1) of the majority of m i.i.d. votes that are +1 with
    probability p, exact ties broken by a fair coin. With h = ceil(m / 2),
    it is P(Binomial(2h - 1, p) >= h) = I_p(h, h), the regularized
    incomplete beta function (for even m a tie is a fair coin, so the vote
    is that of m - 1 votes). At h = 1 (m = 1, 2) it is p itself: adding 0.0
    copies p and maps -0.0 to 0.0, bit for bit what betainc returns on
    [0, 1], at a fraction of its cost."""
    h = (m + 1) // 2
    if h == 1:
        return np.asarray(p, dtype=float) + 0.0
    return special.betainc(h, h, p)


def _binom_tails(p, m: int):
    """(P(vote +1), P(vote -1)) as ``_binom_tail``: P(vote -1) is
    I_{1-p}(h, h). Each tail is computed directly, so neither loses
    relative accuracy as 1 - other."""
    return _binom_tail(p, m), _binom_tail(1.0 - p, m)


def _binom_pmf(c: int, p: np.ndarray) -> np.ndarray:
    """Binomial(c, p[i]) probabilities of k = 0..c (points x (c + 1)), from
    the log pmf: an exact 0 where p is 0 or 1 and k is not c p."""
    k = np.arange(c + 1)
    p = p[:, None]
    log_choose = special.gammaln(c + 1) - special.gammaln(k + 1) - special.gammaln(c - k + 1)
    return np.exp(log_choose + special.xlogy(k, p) + special.xlog1py(c - k, -p))


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
        dist = _convolve_rows(dist, _binom_pmf(c, p))
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
    plus, minus = _vote_tails(*_link_probs(group_links(_as_links(true_links, m)),
                                           t_arr))
    out = np.where(t_arr > 0, plus, np.where(t_arr < 0, minus, 0.5))
    return float(out[0]) if np.isscalar(t) else out


def binom_tail_transform(p, m: int):
    """T_m(p): majority-vote accuracy of m i.i.d. votes of accuracy p,
    I_p(h, h) with h = ceil(m / 2) (``_binom_tail``)."""
    if m < 1:
        raise ValueError("need m >= 1")
    p_arr = np.asarray(p, dtype=float)
    if np.any(p_arr < 0) or np.any(p_arr > 1):
        raise ValueError("p must lie in [0, 1]")
    out = _binom_tail(p_arr, m)
    return float(out) if np.isscalar(p) else out


def inverse_binom_tail_transform(q, m: int):
    """T_m^{-1}(q) for all q at once, exact up to rounding: T_m(p) = I_p(h, h)
    with h = ceil(m / 2) (``_binom_tail``), whose inverse in p is scipy's
    betaincinv.
    """
    if m < 1:
        raise ValueError("need m >= 1")
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
    if not (0 < ns < np.inf and 0 < nb < np.inf):
        raise ValueError("theta_star and theta_bar must be finite and nonzero")
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
# the fitted loss in population


def _kernel_moments(groups, t: float, z: np.ndarray):
    """(E[c | z], Var[c | z], E[w | z]) at u = t z for the per-row gradient
    coefficient c = sum_g (#- sigma_g(u) - #+ sigma_g(-u)) and Hessian weight
    w = sum_g (#+ sigma_g'(-u) + #- sigma_g'(u)) of estimators._CountKernel,
    without its 1 / (n M) scale, which cancels in every use here. Each group
    is (link, M_g, E[#+], E[#-], Var[#+]) on z, #+ and #- its numbers of +1
    and -1 labels; groups are independent given z. As in the kernel, a
    symmetric link is evaluated once, at u: its terms are M_g sigma_g(u) - #+
    and M_g sigma_g'(u).
    """
    u = t * z
    parts = []
    for link, count, plus, minus, spread in groups:
        _, value, deriv = link_terms(link, u)
        if link.symmetric:  # in place: link_terms leaves its arrays to us
            value *= count
            value -= plus
            deriv *= count
            parts.append((value, spread, deriv))
        else:
            _, value_m, deriv_m = link_terms(link, -u)
            parts.append((minus * value - plus * value_m,
                          spread * (value + value_m) ** 2,
                          plus * deriv_m + minus * deriv))
    return tuple(sum(terms[1:], terms[0]) for terms in zip(*parts))


def _sandwich(engine: ZExpectationEngine, groups, t: float) -> float:
    """The multiplier E[c^2] / (t E[w])^2 = E[E[c | Z]^2 + Var[c | Z]] /
    (t E[E[w | Z]])^2 of the loss with label groups ``groups`` on the engine's
    nodes (which expect passes to the integrands) at its minimizer t u*."""
    mean, var, weight = _kernel_moments(groups, t, engine.nodes)
    return (engine.expect(lambda z: mean * mean + var)
            / (t * engine.expect(lambda z: weight)) ** 2)


# ---------------------------------------------------------------------------
# gap function and its root t_m


class PredictionKind(Enum):
    MULTI_LABEL_EXACT = "multilabel-exact"
    MAJORITY_VOTE_EXACT = "majority-exact"
    WELL_SPECIFIED = "well-specified"
    SEMIPARAMETRIC = "semiparametric"
    CROWDSOURCING = "crowdsourcing"


@dataclass(frozen=True)
class GapFunction:
    """h(t) = E[Z E[c | Z]] at u = t Z for the fitted loss of an estimator
    (_kernel_moments), and h'(t) = E[Z^2 E[w | Z]] > 0; the loss is
    minimized at t_m u*, h(t_m) = 0.

    The estimator ``kind`` sets the label groups on the nodes: the model
    link with m = len(true_links) labels (multi-label) or with one majority
    vote (majority vote), or each distinct true link as its own fitted link
    with its M_g labels (well-specified, semiparametric and crowdsourcing,
    whose fits know the links up to the norm; for one shared link this is
    multi-label with that link as the model link). The label probability
    phi(s) = P(label +1 | margin s), which those groups carry at s = t* z,
    is the tie-broken majority probability for majority vote and the
    average of the true links otherwise.

    The engine's panels are resolved to the width of phi(t* z), about
    1/(t* sqrt(m)) for majority vote, and the label groups on its nodes are
    computed once, so each h(t) is one ``link_terms`` call per group and a
    dot product. A fitted link needs no width of its own: sigma(t_m z)
    follows phi(t* z), whatever its scale, as t_m absorbs it.

    ``grouping`` is ``group_links(true_links)``, computed once on
    construction.
    """

    kind: PredictionKind
    t_star: float
    model_link: LinkSpec
    true_links: tuple[LinkSpec, ...]
    engine: ZExpectationEngine
    grouping: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.t_star <= 0:
            raise ValueError("t_star must be positive")
        links = tuple(self.true_links)
        object.__setattr__(self, "true_links", links)
        object.__setattr__(self, "grouping", group_links(links))
        majority = self.kind is PredictionKind.MAJORITY_VOTE_EXACT
        object.__setattr__(self, "engine", _resolve_for_links(
            self.engine, self.grouping[0], self.t_star,
            math.sqrt(len(links)) if majority else 1.0))

    @cached_property
    def _groups(self):
        """The label groups at t* z on the engine's nodes: the model link's
        m labels or one majority vote (whose two tails are computed
        directly), or M_g labels of each distinct true link."""
        probs, counts = _link_probs(self.grouping, self.t_star * self.engine.nodes)
        if self.kind is PredictionKind.MULTI_LABEL_EXACT:
            return ((self.model_link, len(self.true_links), counts @ probs,
                     counts @ (1.0 - probs), counts @ (probs * (1.0 - probs))),)
        if self.kind is PredictionKind.MAJORITY_VOTE_EXACT:
            plus, minus = _vote_tails(probs, counts)
            return ((self.model_link, 1, plus, minus, plus * minus),)
        groups = []
        for link, M, p in zip(self.grouping[0], counts, probs):
            plus, q = M * p, 1.0 - p  # M labels, each +1 with probability p
            groups.append((link, M, plus, M * q, plus * q))
        return tuple(groups)

    @cached_property
    def coarse(self) -> GapFunction:
        """This gap function on the engine's coarse rule."""
        return dataclasses.replace(self, engine=self.engine.coarse())

    @cached_property
    def root(self) -> tuple[float, int]:
        """(t_m, bracket expansions + Newton or bisection iterations); see
        solve_tm. The evaluation at the upper bracket end counts as one
        iteration, so an exact root there (t_m = t* on symmetric fixed
        links) reports one."""
        if gap_eval(self, 0.0) >= 0.0:
            return 0.0, 0
        lo, hi = 0.0, max(self.t_star, 1e-3)
        expansions = 0
        h, slope = _gap_and_slope(self, hi)
        while h < 0.0:
            lo = hi
            hi *= 2.0
            expansions += 1
            if hi > 1e6:
                raise BracketNotFound(
                    "gap function stays negative up to the bracket cap 1e6")
            h, slope = _gap_and_slope(self, hi)
        t = hi
        for iterations in range(expansions + 1, expansions + ROOT_MAXITER + 1):
            step = h / slope
            # the last step is taken: its error is about its square
            if abs(step) <= ROOT_XTOL + ROOT_RTOL * t:
                return t - step, iterations
            if h > 0.0:
                hi = t
            else:
                lo = t
            t = t - step if lo < t - step < hi else 0.5 * (lo + hi)
            h, slope = _gap_and_slope(self, t)
        raise RuntimeError(f"t_m solve did not converge in {ROOT_MAXITER} "
                           f"iterations (bracket [{lo!r}, {hi!r}])")


def gap_eval(g: GapFunction, t: float) -> float:
    # the groups are cached on the engine's nodes, which expect passes to f
    return g.engine.expect(lambda z: z * _kernel_moments(g._groups, t, z)[0])


def _gap_and_slope(g: GapFunction, t: float) -> tuple[float, float]:
    """(h(t), h'(t)) = (E[Z E[c | Z]], E[Z^2 E[w | Z]]) of the gap function,
    from one _kernel_moments call on the engine's nodes."""
    mean, _, weight = _kernel_moments(g._groups, t, g.engine.nodes)
    return (g.engine.expect(lambda z: z * mean),
            g.engine.expect(lambda z: z * z * weight))


def solve_tm(g: GapFunction) -> float:
    """Unique root of the gap function: the upper bracket doubles from t*
    until the gap is nonnegative there, and a safeguarded Newton solve
    from that end (a step that leaves the bracket bisects it instead)
    stops once the step is within ROOT_XTOL + ROOT_RTOL t. The root and
    its iteration count are solved once per gap function (``g.root``)."""
    return g.root[0]


# ---------------------------------------------------------------------------
# covariance predictions


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


def predict_covariance(kind: PredictionKind, model: ModelSpec,
                       model_link: LinkSpec | None = None) -> TheoryPrediction:
    """Asymptotic covariance of sqrt(n)(u_hat - u*) for the requested estimator.

    Every kind solves its gap function (GapFunction, solve_tm) for the
    population norm t_m and returns the variance multiplier, the sandwich of
    the fitted loss at t_m (_sandwich), and the matrix multiplier *
    (P_perp Sigma P_perp)^+. Multi-label and majority vote fit
    ``model_link`` (default logistic). Well-specified (one link shared by
    every labeler, else ``ValueError``), semiparametric and crowdsourcing
    fit each labeler's true link; crowd reads each labeler's reliability
    from its scaled-logistic link, so tabulated true links raise
    ``ValueError``. Every integral uses the default ZExpectationEngine of
    the model's covariates, resolved to the links; the error estimates
    compare with its coarse rule, whose root is one Newton step from t_m.
    """
    if model_link is None:
        model_link = logistic_link()
    g = GapFunction(kind=kind, t_star=model.t_star, model_link=model_link,
                    true_links=model.links,
                    engine=ZExpectationEngine(dist=model.covariates))
    distinct = g.grouping[0]
    if kind is PredictionKind.CROWDSOURCING and any(
            link.family is LinkFamily.TABULATED_MONOTONE for link in distinct):
        raise ValueError("crowd theory needs (scaled-)logistic true links")
    if kind is PredictionKind.WELL_SPECIFIED and len(distinct) > 1:
        raise ValueError("well-specified theory needs one link shared by "
                         "every labeler")
    t_m = solve_tm(g)
    # the coarse rule's root, by one Newton step of its gap function
    coarse = g.coarse
    h, slope = _gap_and_slope(coarse, t_m)
    coarse_t_m = t_m - h / slope
    mult = _sandwich(g.engine, g._groups, t_m)
    coarse_mult = _sandwich(coarse.engine, coarse._groups, coarse_t_m)
    base = _projected_pinv(model.covariates, model.u_star)
    return TheoryPrediction(kind=kind.value, t_m=t_m, variance_multiplier=mult,
                            covariance=mult * base,
                            t_m_error=abs(t_m - coarse_t_m) + ROOT_XTOL + ROUNDOFF * t_m,
                            multiplier_error=abs(mult - coarse_mult) + ROUNDOFF * abs(mult),
                            root_iterations=g.root[1])


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
    grouping = distinct, index = group_links(links)
    if avg_slope0 is None:
        avg_slope0 = float(np.bincount(index) @ np.array(
            [link_derivative(link, 0.0) for link in distinct]) / m)
    beta, c_z = dist.noise_exponent, dist.c_z
    root_m = math.sqrt(m)
    # f(sqrt(m) |z|) and the vote tails at c z both change over ~1/sqrt(m)
    engine = _resolve_for_links(ZExpectationEngine(dist=dist, width=1.0 / root_m),
                                distinct, c, root_m)

    def lhs_integrand(z):
        plus, minus = _vote_tails(*_link_probs(grouping, c * z))
        wrong = np.where(z > 0, minus, plus)  # 1 - rho_m(c z)
        return f(root_m * np.abs(z)) * wrong

    lhs = root_m ** beta * engine.expect(lhs_integrand)
    phi_scale = 1.0 / (2.0 * avg_slope0 * c)
    rhs = c_z * _halfline_integral(
        lambda z: f(z) * special.ndtr(-2.0 * avg_slope0 * c * z), beta - 1.0,
        min(1.0, phi_scale), max(1.0, phi_scale))
    return {"lhs": float(lhs), "rhs": float(rhs)}
