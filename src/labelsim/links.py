"""Link functions and core model types.

A link function sigma maps a margin t to P(Y = 1 | margin = t), with
sigma(0) = 1/2 and sign(sigma(t) - 1/2) = sign(t). Symmetric links
additionally satisfy sigma(t) + sigma(-t) = 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy.special import expit

__all__ = [
    "LinkFamily",
    "LinkSpec",
    "logistic_link",
    "scaled_logistic_link",
    "tabulated_link",
    "link_eval",
    "link_derivative",
    "link_antiderivative",
    "CovariateKind",
    "CovariateDistribution",
    "ModelSpec",
    "MultiLabelDataset",
    "FitResult",
    "TheoryPrediction",
]

SYMMETRY_TOL = 1e-12


class LinkFamily(Enum):
    LOGISTIC = "logistic"
    SCALED_LOGISTIC = "scaled-logistic"
    TABULATED_MONOTONE = "tabulated-monotone"


@dataclass(frozen=True)
class LinkSpec:
    """An evaluable link function with derivative and exact antiderivative.

    For the tabulated family, ``grid`` must be sorted, ``values`` must be
    nondecreasing in [0, 1] with adjacent slopes bounded by ``lipschitz``,
    and evaluation clamps to the endpoint values outside the grid.
    """

    family: LinkFamily
    alpha: float = 1.0
    grid: np.ndarray | None = None
    values: np.ndarray | None = None
    lipschitz: float | None = None
    symmetric: bool = True

    def __post_init__(self):
        if self.family is LinkFamily.SCALED_LOGISTIC and self.alpha <= 0:
            raise ValueError("scaled-logistic alpha must be positive")
        if self.family is LinkFamily.TABULATED_MONOTONE:
            grid = np.asarray(self.grid, dtype=float)
            values = np.asarray(self.values, dtype=float)
            if grid.ndim != 1 or grid.shape != values.shape or grid.size < 2:
                raise ValueError("tabulated link needs matching 1-d grid/values")
            if np.any(np.diff(grid) <= 0):
                raise ValueError("tabulated grid must be strictly increasing")
            if np.any(np.diff(values) < -SYMMETRY_TOL):
                raise ValueError("tabulated values must be nondecreasing")
            if np.any(values < -SYMMETRY_TOL) or np.any(values > 1 + SYMMETRY_TOL):
                raise ValueError("tabulated values must lie in [0, 1]")
            if self.lipschitz is not None:
                slopes = np.diff(values) / np.diff(grid)
                if np.any(slopes > self.lipschitz * (1 + 1e-9) + 1e-12):
                    raise ValueError("tabulated values violate Lipschitz bound")
            object.__setattr__(self, "grid", grid)
            object.__setattr__(self, "values", values)


def logistic_link() -> LinkSpec:
    return LinkSpec(family=LinkFamily.LOGISTIC)


def scaled_logistic_link(alpha: float) -> LinkSpec:
    return LinkSpec(family=LinkFamily.SCALED_LOGISTIC, alpha=alpha)


def tabulated_link(grid, values, lipschitz=None, symmetric=None) -> LinkSpec:
    grid = np.asarray(grid, dtype=float)
    values = np.asarray(values, dtype=float)
    if lipschitz is None:
        gaps = np.diff(grid)
        if np.any(gaps <= 0):
            raise ValueError("tabulated grid must be strictly increasing")
        lipschitz = float(np.max(np.diff(values) / gaps))
    if symmetric is None:
        # symmetric iff the grid is mirror-symmetric and values satisfy
        # v(t) + v(-t) = 1 at every knot
        symmetric = bool(
            np.allclose(grid, -grid[::-1], atol=1e-9)
            and np.allclose(values + values[::-1], 1.0, atol=1e-9)
        )
    return LinkSpec(
        family=LinkFamily.TABULATED_MONOTONE,
        grid=grid,
        values=values,
        lipschitz=float(lipschitz),
        symmetric=symmetric,
    )


def same_link(a: LinkSpec, b: LinkSpec) -> bool:
    """Whether two links are the same function (tabulated links by value)."""
    tabulated = LinkFamily.TABULATED_MONOTONE
    if a.family is tabulated and b.family is tabulated:
        # the dataclass __eq__ cannot compare the knot arrays
        return ((a.lipschitz, a.symmetric) == (b.lipschitz, b.symmetric)
                and np.array_equal(a.grid, b.grid)
                and np.array_equal(a.values, b.values))
    return a == b


def group_links(links) -> tuple[list[LinkSpec], np.ndarray]:
    """Distinct links in order of first appearance, and each link's index
    into that list."""
    distinct: list[LinkSpec] = []
    index = np.empty(len(links), dtype=np.intp)
    for j, link in enumerate(links):
        for g, seen in enumerate(distinct):
            if same_link(link, seen):
                index[j] = g
                break
        else:
            index[j] = len(distinct)
            distinct.append(link)
    return distinct, index


def _softplus(t):
    # log(1 + e^t) without overflow
    t = np.asarray(t, dtype=float)
    return np.maximum(t, 0.0) + np.log1p(np.exp(-np.abs(t)))


def link_eval(link: LinkSpec, t):
    """Evaluate sigma(t); vectorized, returns values in [0, 1]."""
    scalar = np.isscalar(t)
    t = np.atleast_1d(np.asarray(t, dtype=float))
    if link.family is LinkFamily.LOGISTIC:
        out = expit(t)
    elif link.family is LinkFamily.SCALED_LOGISTIC:
        out = expit(link.alpha * t)
    else:
        out = np.interp(t, link.grid, link.values)
    return float(out[0]) if scalar else out


def link_derivative(link: LinkSpec, t):
    """Evaluate sigma'(t) >= 0; tabulated links use the right-slope convention
    at knots (measure-zero choice)."""
    scalar = np.isscalar(t)
    t = np.atleast_1d(np.asarray(t, dtype=float))
    if link.family is LinkFamily.LOGISTIC:
        s = expit(t)
        out = s * (1.0 - s)
    elif link.family is LinkFamily.SCALED_LOGISTIC:
        s = expit(link.alpha * t)
        out = link.alpha * s * (1.0 - s)
    else:
        grid, values = link.grid, link.values
        slopes = np.diff(values) / np.diff(grid)
        idx = np.searchsorted(grid, t, side="right") - 1
        inside = (idx >= 0) & (idx < slopes.size)
        out = np.zeros_like(t)
        out[inside] = slopes[idx[inside]]
    return float(out[0]) if scalar else out


def link_antiderivative(link: LinkSpec, t):
    """S(t) = integral of sigma(v) dv from 0 to t, exact for every family.

    Logistic: S(t) = log(1 + e^t) - log 2. Scaled: S(t) = S_lr(alpha t)/alpha.
    Tabulated: piecewise-quadratic inside the grid, linear outside (clamped
    endpoint values).
    """
    scalar = np.isscalar(t)
    t = np.atleast_1d(np.asarray(t, dtype=float))
    if link.family is LinkFamily.LOGISTIC:
        out = _softplus(t) - np.log(2.0)
    elif link.family is LinkFamily.SCALED_LOGISTIC:
        out = (_softplus(link.alpha * t) - np.log(2.0)) / link.alpha
    else:
        out = _tabulated_antiderivative(link, t)
    return float(out[0]) if scalar else out


def _tabulated_antiderivative(link: LinkSpec, t: np.ndarray) -> np.ndarray:
    grid, values = link.grid, link.values
    # cumulative trapezoid integral of sigma from grid[0] to each knot
    seg = 0.5 * (values[1:] + values[:-1]) * np.diff(grid)
    cum = np.concatenate([[0.0], np.cumsum(seg)])

    def integral_from_left(x):
        # integral of sigma from grid[0] to x, for x possibly outside the grid
        x = np.asarray(x, dtype=float)
        out = np.empty_like(x)
        below = x < grid[0]
        above = x > grid[-1]
        mid = ~(below | above)
        out[below] = values[0] * (x[below] - grid[0])
        out[above] = cum[-1] + values[-1] * (x[above] - grid[-1])
        if np.any(mid):
            xm = x[mid]
            idx = np.clip(np.searchsorted(grid, xm, side="right") - 1, 0, grid.size - 2)
            dx = xm - grid[idx]
            slope = (values[idx + 1] - values[idx]) / (grid[idx + 1] - grid[idx])
            out[mid] = cum[idx] + values[idx] * dx + 0.5 * slope * dx * dx
        return out

    return integral_from_left(t) - integral_from_left(np.zeros(1))[0]


class CovariateKind(Enum):
    ISOTROPIC_GAUSSIAN = "isotropic-gaussian"
    BETA_REGULAR = "beta-regular"


@dataclass(frozen=True)
class CovariateDistribution:
    """Covariate law X = Z u + W with W independent of Z and orthogonal to u.

    IsotropicGaussian: X ~ N(0, I_d) (so Z ~ N(0,1) along any direction).
    BetaRegular: |Z| ~ Gamma(beta, 1) with a uniform random sign along
    ``direction``; W is a standard Gaussian projected orthogonal to it. The
    density of |Z| then satisfies z^{1-beta} p(z) -> 1/Gamma(beta) at 0.
    """

    kind: CovariateKind
    d: int
    beta: float | None = None
    direction: np.ndarray | None = None

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("dimension must be >= 1")
        if self.kind is CovariateKind.BETA_REGULAR:
            if self.beta is None or self.beta <= 0:
                raise ValueError("beta-regular distribution needs beta > 0")
            u = np.asarray(self.direction, dtype=float)
            nrm = np.linalg.norm(u)
            if u.shape != (self.d,) or nrm == 0:
                raise ValueError("direction must be a nonzero d-vector")
            object.__setattr__(self, "direction", u / nrm)

    def z_abs_density(self, z):
        """Density of |Z| on (0, infinity)."""
        from scipy import stats

        z = np.asarray(z, dtype=float)
        if self.kind is CovariateKind.ISOTROPIC_GAUSSIAN:
            return 2.0 * stats.norm.pdf(z)
        return stats.gamma.pdf(z, a=self.beta)

    @property
    def noise_exponent(self) -> float:
        if self.kind is CovariateKind.ISOTROPIC_GAUSSIAN:
            return 1.0
        return float(self.beta)

    @property
    def c_z(self) -> float:
        """Limit of z^{1-beta} p(z) at 0 for the |Z| density."""
        from scipy.special import gamma as gamma_fn

        if self.kind is CovariateKind.ISOTROPIC_GAUSSIAN:
            return float(np.sqrt(2.0 / np.pi))
        return float(1.0 / gamma_fn(self.beta))

    def covariance(self) -> np.ndarray:
        """Population covariance of X."""
        if self.kind is CovariateKind.ISOTROPIC_GAUSSIAN:
            return np.eye(self.d)
        u = self.direction
        var_z = self.beta * (self.beta + 1.0)  # E[Z^2] for sign * Gamma(beta, 1)
        p_perp = np.eye(self.d) - np.outer(u, u)
        return var_z * np.outer(u, u) + p_perp


def isotropic_gaussian(d: int) -> CovariateDistribution:
    return CovariateDistribution(kind=CovariateKind.ISOTROPIC_GAUSSIAN, d=d)


def beta_regular(d: int, beta: float, direction) -> CovariateDistribution:
    return CovariateDistribution(
        kind=CovariateKind.BETA_REGULAR, d=d, beta=beta,
        direction=np.asarray(direction, dtype=float),
    )


@dataclass(frozen=True)
class ModelSpec:
    """Ground truth: theta_star, per-labeler links, covariate law."""

    theta_star: np.ndarray
    links: tuple[LinkSpec, ...]
    covariates: CovariateDistribution

    def __post_init__(self):
        theta = np.asarray(self.theta_star, dtype=float)
        if theta.ndim != 1 or theta.size < 1:
            raise ValueError("theta_star must be a nonempty vector")
        if np.linalg.norm(theta) == 0:
            raise ValueError("theta_star must be nonzero")
        if len(self.links) < 1:
            raise ValueError("need at least one labeler link")
        if self.covariates.d != theta.size:
            raise ValueError("covariate dimension mismatch")
        object.__setattr__(self, "theta_star", theta)
        object.__setattr__(self, "links", tuple(self.links))

    @property
    def m(self) -> int:
        return len(self.links)

    @property
    def d(self) -> int:
        return self.theta_star.size

    @property
    def t_star(self) -> float:
        return float(np.linalg.norm(self.theta_star))

    @property
    def u_star(self) -> np.ndarray:
        return self.theta_star / self.t_star


@dataclass(frozen=True)
class MultiLabelDataset:
    """Covariates X (n x d) with labels Y (n x m) in {-1, +1}."""

    X: np.ndarray
    Y: np.ndarray

    def __post_init__(self):
        X = np.asarray(self.X, dtype=float)
        Y = np.asarray(self.Y)
        if X.ndim != 2 or Y.ndim != 2 or X.shape[0] != Y.shape[0]:
            raise ValueError("X must be n x d and Y n x m with matching n")
        if not np.all(np.abs(Y) == 1):
            raise ValueError("labels must be exactly +/-1")
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "Y", Y.astype(np.int8))

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def d(self) -> int:
        return self.X.shape[1]

    @property
    def m(self) -> int:
        return self.Y.shape[1]


@dataclass(frozen=True)
class FitResult:
    """Solver output: parameter estimate plus diagnostics."""

    theta_hat: np.ndarray
    iterations: int
    final_gradient_norm: float
    separable: bool
    converged: bool = True

    @property
    def u_hat(self) -> np.ndarray:
        nrm = np.linalg.norm(self.theta_hat)
        if nrm == 0:
            raise ValueError("cannot normalize a zero estimate")
        return self.theta_hat / nrm


@dataclass(frozen=True)
class TheoryPrediction:
    """Predicted asymptotic behavior of a normalized estimator.

    ``covariance`` is the full d x d limit covariance of sqrt(n)(u_hat - u*):
    variance_multiplier times the pseudo-inverse of the projected covariate
    covariance. It annihilates u* by construction.

    ``t_m_error`` and ``multiplier_error`` are absolute error estimates: the
    change between the same quadrature panels at two orders, plus rounding
    and, for t_m, the root finder's tolerance. ``root_iterations`` counts
    the bracket expansions and Brent iterations of the t_m solve (0 for
    kinds whose t_m is t* by definition).
    """

    kind: str
    t_m: float
    variance_multiplier: float
    covariance: np.ndarray
    t_m_error: float = 0.0
    multiplier_error: float = 0.0
    root_iterations: int = 0

    def __post_init__(self):
        cov = np.asarray(self.covariance, dtype=float)
        if not np.allclose(cov, cov.T, atol=1e-12):
            raise ValueError("predicted covariance must be symmetric")
        object.__setattr__(self, "covariance", cov)
