"""Link functions and core model types.

A link function sigma maps a margin t to P(Y = 1 | margin = t), with
sigma(0) = 1/2 and sign(sigma(t) - 1/2) = sign(t). Symmetric links
additionally satisfy sigma(t) + sigma(-t) = 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy.special import gamma, gammaln, xlogy

__all__ = [
    "LinkFamily",
    "LinkSpec",
    "logistic_link",
    "scaled_logistic_link",
    "tabulated_link",
    "link_eval",
    "link_derivative",
    "link_antiderivative",
    "link_terms",
    "CovariateKind",
    "CovariateDistribution",
    "isotropic_gaussian",
    "beta_regular",
    "ModelSpec",
    "MultiLabelDataset",
    "LabelCounts",
    "FitResult",
    "TheoryPrediction",
]

SYMMETRY_TOL = 1e-12
LOG2 = np.log(2.0)
# largest knot offset from an evenly spaced grid, in steps; np.linspace
# grids are off by rounding only, and under half a step the index
# arithmetic of the lookup lands within one bin
UNIFORM_TOL = 1e-6
# labels per row block that _count_positive casts to float64 for one
# product: 512 KiB, which stays in cache at any m
COUNT_BLOCK = 1 << 16


class LinkFamily(Enum):
    SCALED_LOGISTIC = "scaled-logistic"
    TABULATED_MONOTONE = "tabulated-monotone"


@dataclass(frozen=True)
class LinkSpec:
    """An evaluable link function with derivative and exact antiderivative.

    For the tabulated family, ``grid`` must be strictly increasing and
    uniform (evenly spaced, as ``np.linspace`` makes it), ``values`` must be
    nondecreasing in [0, 1], and evaluation clamps to the endpoint values
    outside the grid. The lookup table (slopes, cumulative integral, S(0))
    is built once, here. ``symmetric`` (sigma(t) + sigma(-t) = 1, which the
    loss kernels rely on) is derived, not set: True for the scaled-logistic
    family and ``mirror_symmetric(grid, values)`` for a table.
    """

    family: LinkFamily
    alpha: float = 1.0
    grid: np.ndarray | None = None
    values: np.ndarray | None = None

    def __post_init__(self):
        if self.family is LinkFamily.SCALED_LOGISTIC:
            if not 0 < self.alpha < np.inf:
                raise ValueError("scaled-logistic alpha must be positive and finite")
            object.__setattr__(self, "symmetric", True)
        if self.family is LinkFamily.TABULATED_MONOTONE:
            # own read-only copies, so the table built below stays in step
            grid = np.array(self.grid, dtype=float)
            values = np.array(self.values, dtype=float)
            grid.flags.writeable = values.flags.writeable = False
            if grid.ndim != 1 or grid.shape != values.shape or grid.size < 2:
                raise ValueError("tabulated link needs matching 1-d grid/values")
            if not (np.all(np.isfinite(grid)) and np.all(np.isfinite(values))):
                raise ValueError("tabulated grid and values must be finite")
            if np.any(np.diff(grid) <= 0):
                raise ValueError("tabulated grid must be strictly increasing")
            if np.any(np.diff(values) < -SYMMETRY_TOL):
                raise ValueError("tabulated values must be nondecreasing")
            if np.any(values < -SYMMETRY_TOL) or np.any(values > 1 + SYMMETRY_TOL):
                raise ValueError("tabulated values must lie in [0, 1]")
            object.__setattr__(self, "grid", grid)
            object.__setattr__(self, "values", values)
            # not dataclass fields: equality and repr see grid and values only
            object.__setattr__(self, "symmetric", mirror_symmetric(grid, values))
            object.__setattr__(self, "_table", _UniformTable(grid, values))


class _UniformTable:
    """Lookups on a uniform grid. Each bin is found by index arithmetic and
    corrected by one against the stored knots, so it equals
    ``searchsorted(grid, t, "right") - 1``; the arithmetic after it is
    np.interp's, and that of a searchsorted lookup, bit for bit."""

    def __init__(self, grid: np.ndarray, values: np.ndarray):
        self.step = (grid[-1] - grid[0]) / (grid.size - 1)
        ideal = grid[0] + np.arange(grid.size) * self.step
        if np.max(np.abs(grid - ideal)) > UNIFORM_TOL * self.step:
            raise ValueError("tabulated grid must be uniform")
        self.grid, self.values = grid, values
        self.lo, self.hi = grid[0], grid[-1]
        self.inv_step = 1.0 / self.step
        self.last = grid.size - 1
        # a NaN knot past the end: t >= NaN is False, so no bin passes K - 1
        self.knots_ext = np.append(grid, np.nan)
        # slope 0 in bin K - 1 (past the grid) and, by wrap-around, bin -1
        self.slopes = np.append(np.diff(values) / np.diff(grid), 0.0)
        # cumulative trapezoid integral of sigma from grid[0] to each knot
        seg = 0.5 * (values[1:] + values[:-1]) * np.diff(grid)
        self.cum = np.concatenate([[0.0], np.cumsum(seg)])
        # the integral from grid[0] to 0, by the lookup itself while its
        # offset is still 0
        self.s0 = 0.0
        self.s0 = self.terms(np.zeros(1))[0][0]

    def bins(self, t: np.ndarray) -> np.ndarray:
        """searchsorted(grid, t, "right") - 1, in [-1, K - 1], NaN at K - 1."""
        # clipping keeps each bin (below the grid is still below) and the
        # arithmetic finite; fmin sends NaN to the last bin, like searchsorted
        t = np.clip(t, self.lo - 0.5 * self.step, self.hi)
        j = t - self.lo
        j *= self.inv_step
        j = np.fmin(j, self.last, out=j).astype(np.intp)
        # uniform knots put the estimate within one bin of the answer
        j += t >= self.knots_ext[j + 1]
        j -= t < self.grid[j]
        return j

    # The two helpers below work in place, in the order of the plain
    # expressions they replace, so they are bit-identical to them and keep
    # few temporaries alive.

    def _value(self, inside: np.ndarray, j: np.ndarray) -> np.ndarray:
        # np.interp on t clipped to the grid (inside), j = max(bin of t, 0):
        # slopes[j] * (t - grid[j]) + values[j], endpoint values outside the
        # grid, values[j] at a knot
        out = inside - self.grid[j]
        out *= self.slopes[j]
        out += self.values[j]
        return out

    def _integral(self, x: np.ndarray, inside: np.ndarray,
                  j: np.ndarray) -> np.ndarray:
        # integral of sigma from grid[0] to x, for x possibly outside the
        # grid: cum[j] + values[j] dx + 0.5 slopes[j] dx^2 inside, with
        # dx = inside - grid[j], and linear in the end values outside;
        # inside is x clipped to the grid (overwritten by dx), j its bin in
        # [0, K - 2]
        dx = np.subtract(inside, self.grid[j], out=inside)
        out = self.values[j]
        out *= dx
        out += self.cum[j]
        quad = self.slopes[j]
        quad *= 0.5
        quad *= dx
        quad *= dx
        out += quad
        below, above = x < self.lo, x > self.hi
        out[below] = self.values[0] * (x[below] - self.lo)
        out[above] = self.cum[-1] + self.values[-1] * (x[above] - self.hi)
        return out

    def _clipped_value(self, t: np.ndarray, j: np.ndarray):
        # (t clipped to the grid, sigma(t)) given j = bins(t), which becomes
        # the bin of the clipped t in place
        inside = np.clip(t, self.lo, self.hi)
        np.maximum(j, 0, out=j)
        return inside, self._value(inside, j)

    def value(self, t: np.ndarray) -> np.ndarray:
        """sigma(t) alone, bit for bit the sigma of ``terms``."""
        return self._clipped_value(t, self.bins(t))[1]

    def terms(self, t: np.ndarray):
        """(S(t), sigma(t), sigma'(t)) from one bin lookup: S is the
        integral of sigma from 0, sigma is np.interp(t, grid, values) and
        sigma' the slope of t's bin, right slope at a knot and 0 outside
        the grid."""
        j = self.bins(t)
        deriv = self.slopes[j]  # bin -1 (below the grid) has slope 0
        inside, value = self._clipped_value(t, j)
        np.minimum(j, self.last - 1, out=j)
        anti = self._integral(t, inside, j)
        anti -= self.s0
        return anti, value, deriv


def logistic_link() -> LinkSpec:
    """The logistic link, the scaled-logistic link at alpha = 1."""
    return scaled_logistic_link(1.0)


def scaled_logistic_link(alpha: float) -> LinkSpec:
    return LinkSpec(family=LinkFamily.SCALED_LOGISTIC, alpha=alpha)


def tabulated_link(grid, values) -> LinkSpec:
    """Piecewise-linear link through (grid, values). The grid must be
    strictly increasing and uniform (``np.linspace``); a non-uniform grid
    raises ``ValueError``."""
    return LinkSpec(family=LinkFamily.TABULATED_MONOTONE, grid=grid, values=values)


def mirror_symmetric(grid: np.ndarray, values: np.ndarray) -> bool:
    """Whether the knots are mirror images, grid[-1 - i] = -grid[i], and
    v(t) + v(-t) = 1 at each, within SYMMETRY_TOL (for the knots, times the
    grid's extent): symmetric to round-off, not merely to a tolerance."""
    extent = float(np.max(np.abs(grid)))
    return bool(np.all(np.abs(grid + grid[::-1]) <= SYMMETRY_TOL * extent)
                and np.all(np.abs(values + values[::-1] - 1.0) <= SYMMETRY_TOL))


def group_links(links) -> tuple[list[LinkSpec], np.ndarray]:
    """Distinct links in order of first appearance, and each link's index
    into that list. Links are the same function when they are equal, and
    tabulated links when their grids and values are equal (the dataclass
    ``__eq__`` cannot compare the knot arrays): one dictionary lookup per
    link, keyed by the knots' bytes after ``+ 0.0``, so that -0 is 0 as
    under ``np.array_equal``."""
    first: dict = {}
    distinct: list[LinkSpec] = []
    index = np.empty(len(links), dtype=np.intp)
    for j, link in enumerate(links):
        key = link
        if link.family is LinkFamily.TABULATED_MONOTONE:
            key = ((link.grid + 0.0).tobytes(), (link.values + 0.0).tobytes())
        g = first.setdefault(key, len(distinct))
        if g == len(distinct):
            distinct.append(link)
        index[j] = g
    return distinct, index


def _count_positive(positive: np.ndarray, index: np.ndarray) -> np.ndarray:
    """Each row's count of True in each group's columns of the n x m boolean
    ``positive``, group g the columns with index == g: a C-contiguous
    float64 G x n array.

    The counts are one product with the m x G group-indicator matrix, each
    block of about COUNT_BLOCK labels cast to float64 in turn and written
    straight into its columns of the result, so neither an n x m float64
    copy nor a transposed copy of the counts is made. Sums of 0s and 1s are
    exact integers, equal to a row sum of the group's columns in any order.
    A product runs along the m labels of a row in BLAS, where numpy's row
    sum steps along the short axis (3.5-6x slower at m = 4-16, n = 20000).
    One label per row is its own count: at m = 1 a cast costs a quarter of
    the product."""
    n, m = positive.shape
    if m == 1:
        return positive.T.astype(float)
    indicator = np.zeros((m, int(index.max()) + 1))
    indicator[np.arange(m), index] = 1.0
    counts = np.empty((indicator.shape[1], n))
    rows = max(1, COUNT_BLOCK // m)
    for start in range(0, n, rows):
        np.matmul(positive[start:start + rows], indicator,
                  out=counts.T[start:start + rows])
    return counts


def link_eval(link: LinkSpec, t):
    """sigma(t), bit for bit the second output of ``link_terms`` but
    computed without S and sigma'; vectorized, returns values in [0, 1]."""
    return _term(link, t, 1)


def link_derivative(link: LinkSpec, t):
    """sigma'(t) >= 0, the third output of ``link_terms``; tabulated links
    use the right-slope convention at knots (measure-zero choice)."""
    return _term(link, t, 2)


def link_antiderivative(link: LinkSpec, t):
    """S(t) = integral of sigma(v) dv from 0 to t, exact for every family:
    the first output of ``link_terms``.

    Scaled logistic: S(t) = (log(1 + e^(alpha t)) - log 2) / alpha.
    Tabulated: piecewise-quadratic inside the grid, linear outside (clamped
    endpoint values).
    """
    return _term(link, t, 0)


def _term(link: LinkSpec, t, k: int):
    # output k of link_terms, sigma (k = 1) by its own step; a scalar t
    # gives a float
    scalar = np.isscalar(t)
    t = np.atleast_1d(np.asarray(t, dtype=float))
    if k != 1:
        out = link_terms(link, t)[k]
    elif link.family is LinkFamily.TABULATED_MONOTONE:
        out = link._table.value(t)
    else:
        out = _logistic_sigma(link.alpha, t)[3]
    return float(out[0]) if scalar else out


def link_terms(link: LinkSpec, t: np.ndarray):
    """(S(t), sigma(t), sigma'(t)) of a float array t from one pass.

    Logistic family: one e = exp(-|alpha t|) gives sigma = 1/(1 + e) or
    e/(1 + e) by the sign of t, S = (max(alpha t, 0) + log1p(e) - log 2)/alpha
    and sigma' = alpha e/(1 + e)^2; e <= 1 never overflows, and sigma' keeps
    its relative accuracy where s (1 - s) cancels. The family is symmetric,
    S(-t) = S(t) - t, sigma(-t) = 1 - sigma(t) and sigma'(-t) = sigma'(t), so
    these three also give the terms at -t. Tabulated: one bin lookup serves
    all three (``_UniformTable.terms``): S piecewise-quadratic, sigma
    piecewise-linear and sigma' piecewise-constant; the identities hold to
    round-off when the knots are ``mirror_symmetric`` (``link.symmetric``)
    and not at all otherwise, where -t takes its own call. The caller owns
    the returned arrays.
    """
    if link.family is LinkFamily.TABULATED_MONOTONE:
        return link._table.terms(t)
    return _logistic_terms(link, t)


def _logistic_sigma(alpha: float, t: np.ndarray):
    # (alpha t, e, 1 + e, sigma(t)), the sigma step of _logistic_terms
    at = alpha * t
    e = np.abs(at)
    np.negative(e, out=e)
    np.exp(e, out=e)
    d = 1.0 + e
    # 1 where alpha t >= 0, else e: as 0 <= e <= 1 (NaN passes through),
    # the maximum is that choice without a branch per element
    value = np.maximum(e, at >= 0)
    value /= d
    return at, e, d, value


def _logistic_terms(link: LinkSpec, t: np.ndarray):
    # in-place steps keep the live n-vectors few
    alpha = link.alpha
    at, e, d, value = _logistic_sigma(alpha, t)
    anti = np.maximum(at, 0.0, out=at)
    deriv = np.multiply(d, d, out=d)
    np.divide(e, deriv, out=deriv)
    anti += np.log1p(e, out=e)
    anti -= LOG2
    if alpha != 1.0:  # at alpha = 1 (the logistic link) both are exact no-ops
        deriv *= alpha
        anti /= alpha
    return anti, value, deriv


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
            if self.beta is None or not 0 < self.beta < np.inf:
                raise ValueError("beta-regular distribution needs finite beta > 0")
            u = np.asarray(self.direction, dtype=float)
            nrm = np.linalg.norm(u)
            if u.shape != (self.d,) or nrm == 0:
                raise ValueError("direction must be a nonzero d-vector")
            object.__setattr__(self, "direction", u / nrm)

    def z_abs_density(self, z):
        """Density of |Z| on (0, infinity)."""
        z = np.asarray(z, dtype=float)
        # 2 stats.norm.pdf(z) and stats.gamma.pdf(z, beta) bit for bit: scipy's
        # own formulas without its argument handling, which costs more
        if self.kind is CovariateKind.ISOTROPIC_GAUSSIAN:
            return 2.0 * (np.exp(-z**2 / 2.0) / np.sqrt(2.0 * np.pi))
        return np.exp(xlogy(self.beta - 1.0, z) - z - gammaln(self.beta))

    @property
    def noise_exponent(self) -> float:
        if self.kind is CovariateKind.ISOTROPIC_GAUSSIAN:
            return 1.0
        return float(self.beta)

    @property
    def c_z(self) -> float:
        """Limit of z^{1-beta} p(z) at 0 for the |Z| density."""
        if self.kind is CovariateKind.ISOTROPIC_GAUSSIAN:
            return float(np.sqrt(2.0 / np.pi))
        return float(1.0 / gamma(self.beta))

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
        if not 0 < np.linalg.norm(theta) < np.inf:
            raise ValueError("theta_star must be finite and nonzero")
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
class LabelCounts:
    """Covariates X (n x d) with each row's count of +1 labels among m: all
    that a pooled loss reads of a ``MultiLabelDataset`` (``estimators.fit``
    takes either for a pooled ``LossSpec``). Counts are stored as float64,
    the form the loss kernel reads."""

    X: np.ndarray
    counts: np.ndarray
    m: int

    def __post_init__(self):
        X = np.asarray(self.X, dtype=float)
        counts = np.asarray(self.counts, dtype=float)
        if X.ndim != 2 or counts.shape != (X.shape[0],):
            raise ValueError("X must be n x d and counts an n-vector")
        if self.m < 1:
            raise ValueError("need m >= 1 labels per row")
        if not np.all((counts >= 0) & (counts <= self.m)
                      & (counts == np.trunc(counts))):
            raise ValueError("counts must be integers in [0, m]")
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "m", int(self.m))

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def d(self) -> int:
        return self.X.shape[1]


@dataclass(frozen=True)
class FitResult:
    """Solver output: parameter estimate plus diagnostics.

    ``iterations`` counts the Newton steps on all rows, ``warm_iterations``
    those of the subsample fit that chose the start (0 when there was
    none), and ``stop_reason`` says why the full-data loop stopped:
    "grad_tol", "decrement", "max_iters", "no_descent" or "diverged".
    """

    theta_hat: np.ndarray
    iterations: int
    final_gradient_norm: float
    separable: bool
    converged: bool
    stop_reason: str
    warm_iterations: int

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
    the bracket expansions and the Newton or bisection iterations of the
    t_m solve, which every kind runs; the evaluation at the upper bracket
    end is the first, so an exact root there reports one.
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
