"""Closed-form asymptotics for the noisy-label estimators.

Evaluates majority-vote probabilities, the binomial tail transform and the
link construction that makes two (link, norm, labeler-count) configurations
observationally equivalent, calibration gap functions and their roots t_m,
asymptotic covariance multipliers for each estimator, and the large-m limit
constants a and b.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy import integrate, optimize, stats

from .links import (
    CovariateDistribution,
    CovariateKind,
    LinkFamily,
    LinkSpec,
    ModelSpec,
    TheoryPrediction,
    link_derivative,
    link_eval,
    logistic_link,
    tabulated_link,
)

__all__ = [
    "BracketNotFound",
    "DivergentIntegral",
    "NotOrthogonal",
    "ExpectationMethod",
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


class BracketNotFound(RuntimeError):
    pass


class DivergentIntegral(RuntimeError):
    pass


class NotOrthogonal(ValueError):
    pass


# ---------------------------------------------------------------------------
# expectations over the signed margin Z


class ExpectationMethod(Enum):
    GAUSS_HERMITE = "gauss-hermite"
    ADAPTIVE_QUADRATURE = "adaptive-quadrature"
    MONTE_CARLO = "monte-carlo"


@dataclass(frozen=True)
class ZExpectationEngine:
    """Computes E[f(Z)] for the signed margin Z of a covariate distribution.

    Gauss-Hermite applies only to Gaussian Z; adaptive quadrature integrates
    the even part of f against the density of |Z| on (0, inf); Monte Carlo
    reuses the same draws on every call (one seed) so ratios of expectations
    stay internally consistent.
    """

    dist: CovariateDistribution
    method: ExpectationMethod = ExpectationMethod.ADAPTIVE_QUADRATURE
    order: int = 80
    rel_tol: float = 1e-9
    mc_n: int = 100_000
    mc_seed: int = 0

    def __post_init__(self):
        if (self.method is ExpectationMethod.GAUSS_HERMITE
                and self.dist.kind is not CovariateKind.ISOTROPIC_GAUSSIAN):
            raise ValueError("Gauss-Hermite requires Gaussian margins")

    def expect(self, f) -> float:
        """E[f(Z)]; f must accept scalars (quadrature) or arrays (others)."""
        if self.method is ExpectationMethod.GAUSS_HERMITE:
            x, w = np.polynomial.hermite.hermgauss(self.order)
            return float(np.sum(w * f(np.sqrt(2.0) * x)) / np.sqrt(np.pi))
        if self.method is ExpectationMethod.MONTE_CARLO:
            z = self._draws()
            return float(np.mean(f(z)))
        p = self.dist.z_abs_density

        def even_part(z):
            return 0.5 * (f(z) + f(-z)) * p(z)

        a, _ = integrate.quad(even_part, 0.0, 1.0,
                              epsrel=self.rel_tol, epsabs=1e-13, limit=200)
        b, _ = integrate.quad(even_part, 1.0, np.inf,
                              epsrel=self.rel_tol, epsabs=1e-13, limit=200)
        return a + b

    def _draws(self) -> np.ndarray:
        rng = np.random.default_rng(self.mc_seed)
        if self.dist.kind is CovariateKind.ISOTROPIC_GAUSSIAN:
            return rng.standard_normal(self.mc_n)
        mag = rng.gamma(self.dist.beta, 1.0, size=self.mc_n)
        return mag * rng.choice([-1.0, 1.0], size=self.mc_n)


def _default_engine(dist: CovariateDistribution) -> ZExpectationEngine:
    return ZExpectationEngine(dist=dist)


# ---------------------------------------------------------------------------
# majority-vote probabilities


def _as_links(true_links, m: int) -> list[LinkSpec]:
    if isinstance(true_links, LinkSpec):
        return [true_links] * m
    links = list(true_links)
    if len(links) != m:
        raise ValueError("need one link per labeler")
    return links


def _same_link(a: LinkSpec, b: LinkSpec) -> bool:
    tabulated = LinkFamily.TABULATED_MONOTONE
    if a.family is tabulated and b.family is tabulated:
        # the dataclass __eq__ cannot compare the knot arrays
        return ((a.lipschitz, a.symmetric) == (b.lipschitz, b.symmetric)
                and np.array_equal(a.grid, b.grid)
                and np.array_equal(a.values, b.values))
    return a == b


def _identical_links(links) -> bool:
    return all(link is links[0] or _same_link(link, links[0])
               for link in links[1:])


def _binom_majority(p, m: int):
    """P(Binomial(m, p) strict majority) + half the tie probability."""
    k = m // 2
    if m % 2 == 1:
        return stats.binom.sf(k, m, p)
    return stats.binom.sf(k, m, p) + 0.5 * stats.binom.pmf(k, m, p)


def _poisson_binomial_majority(probs: np.ndarray) -> float:
    """Majority probability for independent nonidentical Bernoullis.

    O(m^2) dynamic program over the count distribution; exact up to
    floating-point rounding, even m handled by the fair-tie half term.
    """
    m = probs.size
    dp = np.zeros(m + 1)
    dp[0] = 1.0
    for p in probs:
        dp[1:] = dp[1:] * (1.0 - p) + dp[:-1] * p
        dp[0] *= 1.0 - p
    k = m // 2
    total = float(dp[k + 1:].sum())
    if m % 2 == 0:
        total += 0.5 * float(dp[k])
    return total


def majority_plus_prob(t, m: int, true_links):
    """P(majority vote = +1 | margin = t) under the given true links."""
    links = _as_links(true_links, m)
    if _identical_links(links):
        return _binom_majority(link_eval(links[0], t), m)
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    out = np.empty_like(t_arr)
    for i, ti in enumerate(t_arr):
        probs = np.array([link_eval(link, ti) for link in links])
        out[i] = _poisson_binomial_majority(probs)
    return float(out[0]) if np.isscalar(t) else out


def rho_m(t, m: int, true_links):
    """P(tie-broken majority vote = sign(t) | margin = t), in [1/2, 1].

    For symmetric links this is even in t and nondecreasing in |t|.
    """
    if m < 1:
        raise ValueError("need m >= 1")
    plus = majority_plus_prob(t, m, true_links)
    t_arr = np.asarray(t, dtype=float)
    out = np.where(t_arr > 0, plus, np.where(t_arr < 0, 1.0 - np.asarray(plus), 0.5))
    return float(out) if np.isscalar(t) else out


def binom_tail_transform(p, m: int):
    """T_m(p): majority-vote accuracy of m i.i.d. votes of accuracy p."""
    p_arr = np.asarray(p, dtype=float)
    if np.any(p_arr < 0) or np.any(p_arr > 1):
        raise ValueError("p must lie in [0, 1]")
    out = _binom_majority(p_arr, m)
    return float(out) if np.isscalar(p) else out


def inverse_binom_tail_transform(q, m: int):
    """T_m^{-1}(q) by bracketed root finding on [0, 1] to 1e-12."""
    scalar = np.isscalar(q)
    q_arr = np.atleast_1d(np.asarray(q, dtype=float))
    if np.any(q_arr < 0) or np.any(q_arr > 1):
        raise ValueError("q must lie in [0, 1]")
    out = np.empty_like(q_arr)
    for i, qi in enumerate(q_arr):
        if qi <= 0.0:
            out[i] = 0.0
        elif qi >= 1.0:
            out[i] = 1.0
        else:
            out[i] = optimize.brentq(
                lambda p: binom_tail_transform(p, m) - qi, 0.0, 1.0,
                xtol=1e-12, rtol=8.9e-16)
    return float(out[0]) if scalar else out


def construct_matching_link(sigma_star: LinkSpec, theta_star, m: int,
                            theta_bar, m_bar: int, grid=None) -> LinkSpec:
    """Tabulated link making (sigma_bar, theta_bar, m_bar) produce the same
    majority-vote label distribution as (sigma_star, theta_star, m).

    sigma_bar(t) = T_{m_bar}^{-1}(T_m(sigma_star(s t))) with
    s = ||theta_star|| / ||theta_bar||; requires collinear directions.
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
    # guard tiny root-finder noise so the tabulated validator accepts
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
        links = _as_links(self.true_links, self.m)
        object.__setattr__(self, "true_links", tuple(links))

    def phi(self, s):
        if self.mode is GapMode.MULTI_LABEL:
            vals = [link_eval(link, s) for link in self.true_links]
            return np.mean(vals, axis=0)
        return majority_plus_prob(s, self.m, self.true_links)


def gap_eval(g: GapFunction, t: float) -> float:
    sigma = g.model_link

    def integrand(z):
        phi = g.phi(g.t_star * z)
        return (link_eval(sigma, t * z) * z * (1.0 - phi)
                - link_eval(sigma, -t * z) * z * phi)

    return g.engine.expect(integrand)


def solve_tm(g: GapFunction) -> float:
    """Unique root of the gap function, found by doubling the upper bracket
    from t* and refining with Brent's method to 1e-10."""
    lo, f_lo = 0.0, gap_eval(g, 0.0)
    if f_lo >= 0.0:
        return 0.0
    hi = max(g.t_star, 1e-3)
    while gap_eval(g, hi) < 0.0:
        lo = hi
        hi *= 2.0
        if hi > 1e6:
            raise BracketNotFound(
                "gap function stays negative up to the bracket cap 1e6")
    t_m = float(optimize.brentq(lambda t: gap_eval(g, t), lo, hi,
                                xtol=1e-10, rtol=8.9e-16))
    if g.mode is GapMode.MAJORITY_VOTE and t_m < g.t_star * (1.0 - 1e-6):
        raise ValueError(
            f"majority-vote root t_m={t_m:.6g} fell below t*={g.t_star:.6g}")
    return t_m


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


def predict_covariance(kind, model: ModelSpec, engine: ZExpectationEngine | None = None,
                       model_link: LinkSpec | None = None,
                       alpha=None) -> TheoryPrediction:
    """Asymptotic covariance of sqrt(n)(u_hat - u*) for the requested estimator.

    Returns the scalar variance multiplier and the full matrix
    multiplier * (P_perp Sigma P_perp)^+; the multi-label and majority-vote
    kinds first solve for the population norm t_m of the misspecified fit.
    """
    if isinstance(kind, str):
        kind = PredictionKind(kind)
    if engine is None:
        engine = _default_engine(model.covariates)
    if model_link is None:
        model_link = logistic_link()
    t_star, m = model.t_star, model.m
    base = _projected_pinv(model.covariates, model.u_star)

    if kind is PredictionKind.WELL_SPECIFIED:
        sigma = model.links[0]
        num = engine.expect(
            lambda z: link_eval(sigma, t_star * z) * (1.0 - link_eval(sigma, t_star * z)))
        den = engine.expect(lambda z: link_derivative(sigma, t_star * z))
        mult = num / (m * t_star ** 2 * den ** 2)
        return TheoryPrediction(kind=kind.value, t_m=t_star,
                                variance_multiplier=mult, covariance=mult * base)

    if kind is PredictionKind.MULTI_LABEL_EXACT:
        g = GapFunction(mode=GapMode.MULTI_LABEL, t_star=t_star, m=m,
                        model_link=model_link, true_links=model.links, engine=engine)
        t_m = solve_tm(g)
        sigma = model_link

        def phi(z):
            return g.phi(t_star * z)

        def le_sq(z):
            le = (link_eval(sigma, t_m * z) * (1.0 - phi(z))
                  - link_eval(sigma, -t_m * z) * phi(z))
            return le * le

        def he(z):
            return (link_derivative(sigma, -t_m * z) * phi(z)
                    + link_derivative(sigma, t_m * z) * (1.0 - phi(z)))

        e_le2 = engine.expect(le_sq)
        e_he = engine.expect(he)
        v_sum = 0.0
        for link in g.true_links:
            def v_j(z, link=link):
                p = link_eval(link, t_star * z)
                span = link_eval(sigma, t_m * z) + link_eval(sigma, -t_m * z)
                return p * (1.0 - p) * span * span

            v_sum += engine.expect(v_j)
        mult = (e_le2 + v_sum / m ** 2) / (t_m ** 2 * e_he ** 2)
        return TheoryPrediction(kind=kind.value, t_m=t_m,
                                variance_multiplier=mult, covariance=mult * base)

    if kind is PredictionKind.MAJORITY_VOTE_EXACT:
        g = GapFunction(mode=GapMode.MAJORITY_VOTE, t_star=t_star, m=m,
                        model_link=model_link, true_links=model.links, engine=engine)
        t_m = solve_tm(g)
        sigma = model_link

        def num_f(z):
            rho = rho_m(t_star * z, m, g.true_links) if z != 0 else 0.5
            s_neg = link_eval(sigma, -t_m * abs(z))
            s_pos = link_eval(sigma, t_m * abs(z))
            return s_neg * s_neg * rho + s_pos * s_pos * (1.0 - rho)

        num = engine.expect(np.vectorize(num_f, otypes=[float]))
        den = engine.expect(lambda z: link_derivative(sigma, t_m * z))
        mult = num / (t_m ** 2 * den ** 2)
        return TheoryPrediction(kind=kind.value, t_m=t_m,
                                variance_multiplier=mult, covariance=mult * base)

    if kind is PredictionKind.SEMIPARAMETRIC:
        nums = [engine.expect(
            lambda z, link=link: link_eval(link, t_star * z)
            * (1.0 - link_eval(link, t_star * z))) for link in model.links]
        dens = [engine.expect(
            lambda z, link=link: t_star * link_derivative(link, t_star * z))
            for link in model.links]
        mult = (np.mean(nums) / np.mean(dens) ** 2) / m
        return TheoryPrediction(kind=kind.value, t_m=t_star,
                                variance_multiplier=mult, covariance=mult * base)

    if kind is PredictionKind.CROWDSOURCING:
        if alpha is None:
            raise ValueError("Crowdsourcing prediction needs alpha")
        alpha = np.asarray(alpha, dtype=float)
        if alpha.size != m or np.any(alpha <= 0):
            raise ValueError("alpha must be a positive m-vector")
        lr = logistic_link()
        total = sum(engine.expect(
            lambda z, a=a: link_eval(lr, a * t_star * z)
            * (1.0 - link_eval(lr, a * t_star * z))) for a in alpha)
        mult = 1.0 / (t_star ** 2 * total)
        return TheoryPrediction(kind=kind.value, t_m=t_star,
                                variance_multiplier=mult, covariance=mult * base)

    raise ValueError(f"unknown prediction kind: {kind}")


# ---------------------------------------------------------------------------
# large-m constants and limit lemmas


def _halfline_integral(f, rel_tol: float = 1e-9) -> float:
    a, _ = integrate.quad(f, 0.0, 1.0, epsrel=rel_tol, epsabs=1e-13, limit=200)
    b, _ = integrate.quad(f, 1.0, np.inf, epsrel=rel_tol, epsabs=1e-13, limit=200)
    return a + b


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
    den_check = _halfline_integral(
        lambda z: z ** (beta - 1.0) * link_derivative(sigma, z))
    tail = integrate.quad(
        lambda z: z ** (beta - 1.0) * link_derivative(sigma, z),
        50.0, np.inf, epsrel=1e-9, epsabs=1e-13, limit=200)[0]
    if not np.isfinite(den_check) or tail > 1e-3 * abs(den_check) + 1e-8:
        raise DivergentIntegral("int z^{beta-1} sigma'(z) dz does not converge")

    s0 = avg_slope0
    a_num = _halfline_integral(lambda z: z ** beta * link_eval(sigma, -z))
    a_den = _halfline_integral(lambda z: z ** beta * stats.norm.cdf(-2.0 * s0 * z))
    a = (a_num / a_den) ** (1.0 / (beta + 1.0))

    def b_integrand(z):
        s_neg = link_eval(sigma, -a * z)
        s_pos = link_eval(sigma, a * z)
        return z ** (beta - 1.0) * (
            s_neg * s_neg
            + (s_pos * s_pos - s_neg * s_neg) * stats.norm.cdf(-2.0 * s0 * z))

    b_num = c_z * _halfline_integral(b_integrand)
    b = a ** (2.0 * beta - 2.0) * b_num / (c_z * den_check) ** 2
    return {"a": float(a), "b": float(b)}


def largem_tz_limit_check(dist: CovariateDistribution, f, t: float) -> dict:
    """Both sides of lim_{t->inf} t^beta E[f(t|Z|)] = c_Z int z^{beta-1} f(z) dz.

    The left side integrates in the rescaled variable w = t z so the
    quadrature sees the scale of f rather than the vanishing margin scale.
    """
    beta, c_z = dist.noise_exponent, dist.c_z
    p = dist.z_abs_density
    lhs = t ** (beta - 1.0) * _halfline_integral(lambda w: f(w) * p(w / t))
    rhs = c_z * _halfline_integral(lambda z: z ** (beta - 1.0) * f(z))
    return {"lhs": float(lhs), "rhs": float(rhs)}


def largem_rho_limit_check(dist: CovariateDistribution, f, c: float,
                           true_links, m: int = 4096,
                           avg_slope0: float | None = None) -> dict:
    """Both sides of the majority-tail limit
    lim_m m^{beta/2} E[f(sqrt(m)|Z|)(1 - rho_m(c Z))]
      = c_Z int z^{beta-1} f(z) Phi(-2 s0 c z) dz,
    with rho_m evaluated exactly at the finite m on the left side.
    """
    links = _as_links(true_links, m)
    if avg_slope0 is None:
        avg_slope0 = float(np.mean([link_derivative(link, 0.0) for link in links]))
    beta, c_z = dist.noise_exponent, dist.c_z
    p = dist.z_abs_density
    root_m = math.sqrt(m)

    def lhs_integrand(w):
        # substitution w = sqrt(m) z; rho_m is even so use the positive branch
        return f(w) * (1.0 - rho_m(c * w / root_m, m, links)) * p(w / root_m)

    lhs = root_m ** (beta - 1.0) * _halfline_integral(lhs_integrand, rel_tol=1e-8)
    rhs = c_z * _halfline_integral(
        lambda z: z ** (beta - 1.0) * f(z)
        * stats.norm.cdf(-2.0 * avg_slope0 * c * z))
    return {"lhs": float(lhs), "rhs": float(rhs)}
