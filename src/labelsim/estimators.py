"""Convex ERM solvers for the link-based losses.

The per-sample loss is l_{sigma,theta}(y | x) = -int_0^{y<theta,x>} sigma(-v) dv,
which specializes to the logistic loss (up to an additive constant) for the
logistic link. There are two losses. A ``LossSpec`` without ``links`` is
the pooled loss under its model link: multi-label ERM on the n x m labels,
or majority-vote ERM on the n x 1 vote column (``majority_vote_matrix(Y,
seed)`` of observed labels; Monte Carlo trials draw the votes). One with
``links`` is the per-labeler loss: the semiparametric refit's fitted links,
or the crowd plug-in's scaled-logistic links sigma(t) = 1/(1 + exp(-alpha_j
t)) at the estimated reliabilities. Each counts its labels once, per link
group, into one kernel over the margins u = X theta: group g has M_g labels
per row under one link, k_g of them +1; the pooled loss is one group, M = m.
A pooled loss reads nothing of the labels but each row's count k, so
``fit`` also takes a ``LabelCounts`` (X with the counts, as Monte Carlo
multi-label trials draw them) for a pooled spec.

Row i of group g costs k_g S_g(-u_i) + (M_g - k_g) S_g(u_i), S the link
antiderivative. A symmetric link has S(-u) = S(u) - u, sigma(-u) =
1 - sigma(u) and sigma'(-u) = sigma'(u), so symmetric groups need one
evaluation at u and one total count k: loss sum_g M_g S_g(u) - k u,
gradient coefficients c = sum_g M_g sigma_g(u) - k and Hessian weights
w = sum_g M_g sigma_g'(u), all over n sum_g M_g. Scaled-logistic links are
symmetric, and so are mirror-symmetric tables (``links.mirror_symmetric``,
to round-off); symmetric tables on one grid become one table of knot values
sum_g M_g v_g. Any other group keeps the two-sided form, evaluated at u and
-u. A kernel call, ``kernel(u) -> (loss, c, w)``, evaluates each link once
per side through ``links.link_terms`` (S, sigma and sigma' together).

``fit`` counts the labels once, one product per call (``_reduce``), and
reads X^T as a C-contiguous d x n array XT, on which the margins theta XT,
the gradient XT c and the Hessian (``_hessian``) all run along the long n
axis: a view of column-major X (as ``sample_covariates`` draws it), else
one copy. It then runs one
damped Newton loop (``_newton``) until the gradient norm reaches
``GRAD_TOL``, theta diverges, no step decreases the loss, ``max_iters``
runs out, or the Newton decrement lambda^2 = g^T H^{-1} g falls to the
loss's round-off (Boyd & Vandenberghe, Convex Optimization, 9.5.1). In the
last case it takes the full Newton step, whose decrease a line search
cannot resolve. A fit converged when it stopped on ``GRAD_TOL`` or on the
decrement.

Without a start ``theta0``, a fit on at least ``WARM_MIN_ROWS`` rows first
runs the same loop on every ``WARM_STRIDE``-th row, the counts and XT's
columns sliced, to the loose
``WARM_GRAD_TOL``. Newton converges quadratically near the optimum
(9.5.3), so from the subsample's optimum the full-data loop needs 3-4
iterations instead of 6-10 from zero. A subsample fit that ends separable,
diverged or unconverged is dropped and the full-data loop starts from
zero. The full-data loop alone decides the result, so every fit meets
the same stopping rule on all n rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from functools import partial

import numpy as np

# unused here; the benchmark tracer (perfbench/tracing.py) patches
# estimators.majority_vote_matrix, and ``--trace 1`` fails without the name
from .datagen import majority_vote_matrix  # noqa: F401
from .links import (
    FitResult,
    LabelCounts,
    LinkFamily,
    LinkSpec,
    MultiLabelDataset,
    _count_positive,
    _UniformTable,
    group_links,
    link_antiderivative,
    link_terms,
    logistic_link,
)

__all__ = [
    "LossMode",
    "LossSpec",
    "SolverOptions",
    "NonConvergence",
    "DimensionMismatch",
    "link_loss",
    "loss_value",
    "loss_gradient",
    "loss_hessian",
    "fit",
]

# A Newton decrement below this share of max(1, |loss|) is within the
# round-off of the loss, where the Armijo test cannot see the decrease.
DECREMENT_ROUNDOFF = 64 * np.finfo(float).eps

# The stops of a converged Newton loop; the others are "max_iters",
# "no_descent" and "diverged".
CONVERGED_STOPS = ("grad_tol", "decrement")

# ||grad|| of a converged Newton loop, and ||theta|| of a diverged one
GRAD_TOL = 1e-10
DIVERGENCE_THRESHOLD = 1e4

# A fit from theta = 0 on at least WARM_MIN_ROWS rows first solves on every
# WARM_STRIDE-th row to WARM_GRAD_TOL; a stride, not a prefix, samples
# row-ordered data across its range.
WARM_STRIDE = 16
WARM_MIN_ROWS = 16 * 128
WARM_GRAD_TOL = 1e-6


class NonConvergence(RuntimeError):
    pass


class DimensionMismatch(ValueError):
    pass


# Read only by the benchmark tracer (perfbench/tracing.py: fit_before keys
# FIT_MODES by spec.mode.value); a LossSpec's loss is set by its links alone.
class LossMode(Enum):
    MULTI_LABEL = "multilabel"
    PER_LABELER = "per-labeler"


@dataclass(frozen=True)
class LossSpec:
    """The pooled loss under model_link, or the per-labeler loss (links)."""

    model_link: LinkSpec = field(default_factory=logistic_link)
    links: tuple[LinkSpec, ...] | None = None

    def __post_init__(self):
        if self.links is not None:
            if not self.links:
                raise ValueError("a per-labeler loss needs a link per labeler")
            object.__setattr__(self, "links", tuple(self.links))

    @property
    def mode(self) -> LossMode:
        return LossMode.MULTI_LABEL if self.links is None else LossMode.PER_LABELER


@dataclass(frozen=True)
class SolverOptions:
    """The iteration cap, the one setting callers vary: tests cap it to reach
    ``NonConvergence``, and the benchmark tracer records it per fit."""

    max_iters: int = 200


def link_loss(link: LinkSpec, theta, x, y) -> float:
    """Per-sample link loss -int_0^{y<theta,x>} sigma(-v) dv.

    By the substitution w = -v this equals int_0^{-y<theta,x>} sigma(w) dw,
    evaluated through the link's exact antiderivative.
    """
    margin = float(np.dot(np.asarray(theta, float), np.asarray(x, float)))
    return float(link_antiderivative(link, -y * margin))


class _CountKernel:
    """The loss of n rows whose labels fall in link groups, ``groups``
    listing each group's (link, M_g, k_g). ``kernel(u)`` returns (loss, c,
    w): the mean loss over the n sum_g M_g labels, c with gradient X^T c,
    and w with Hessian X^T diag(w) X."""

    def __init__(self, groups):
        symmetric = [g for g in groups if g[0].symmetric]
        self.two_sided = [g for g in groups if not g[0].symmetric]
        self.k = sum(k for _, _, k in symmetric)
        self.one_sided, tables = [], {}
        for link, M, _ in symmetric:
            if link.family is LinkFamily.SCALED_LOGISTIC:
                self.one_sided.append((partial(link_terms, link), M))
            else:  # summed per grid: a link is linear in its knot values
                grid, values = tables.get(link.grid.tobytes(), (link.grid, 0.0))
                tables[grid.tobytes()] = grid, values + M * link.values
        self.one_sided += [(_UniformTable(grid, values).terms, 1.0)
                           for grid, values in tables.values()]
        self.M = float(sum(M for _, M, _ in groups))
        self.count = sum(k for _, _, k in groups)
        self.scale = self.count.size * self.M

    def _group_terms(self, u: np.ndarray):
        """Each group's summed loss, c and w before the scale, the symmetric
        groups without their -k u and -k."""
        for terms, M in self.one_sided:
            anti, value, deriv = terms(u)
            if M != 1:  # x 1 is exact: skip two full passes
                value *= M
                deriv *= M
            yield M * anti.sum(), value, deriv
        for link, M, k in self.two_sided:
            anti, value, deriv = link_terms(link, u)
            anti_m, value_m, deriv_m = link_terms(link, -u)
            rest = M - k  # labels that are -1
            yield ((k * anti_m + rest * anti).sum(), rest * value - k * value_m,
                   k * deriv_m + rest * deriv)

    def __call__(self, u: np.ndarray):
        groups = self._group_terms(u)
        loss, value, deriv = next(groups)
        for part, v, dv in groups:
            loss += part
            value += v
            deriv += dv
        if self.one_sided:
            loss -= self.k @ u
            value -= self.k
        value /= self.scale
        deriv /= self.scale
        return float(loss / self.scale), value, deriv

    def separated(self, u: np.ndarray) -> bool:
        return bool(np.all(np.where(u > 0, self.count == self.M,
                                    (u < 0) & (self.count == 0))))


def _check_dims(spec: LossSpec, theta: np.ndarray, data):
    if theta.shape != (data.d,):
        raise DimensionMismatch(
            f"theta has shape {theta.shape}, expected ({data.d},)")
    if spec.links is not None:
        if isinstance(data, LabelCounts):
            raise ValueError("a per-labeler loss reads each labeler's labels, "
                             "not their pooled counts")
        if len(spec.links) != data.m:
            raise DimensionMismatch("need one link per labeler column")


def _reduce(spec: LossSpec, Y: np.ndarray) -> list:
    """The link groups (link, M_g, k_g) of ``spec`` on the n x m labels
    ``Y``, the labels counted once per group by one product
    (``links._count_positive``)."""
    if spec.links is None:
        distinct, index = [spec.model_link], np.zeros(Y.shape[1], dtype=np.intp)
    else:
        distinct, index = group_links(spec.links)
    counts = _count_positive(Y == 1, index)
    return [(link, int(M), k) for link, M, k in zip(distinct, np.bincount(index), counts)]


def _groups(spec: LossSpec, data: MultiLabelDataset | LabelCounts) -> list:
    """The link groups of ``spec`` on ``data``: a ``LabelCounts``' counts
    are its one group, a ``MultiLabelDataset``'s labels are reduced."""
    if isinstance(data, LabelCounts):
        return [(spec.model_link, data.m, data.counts)]
    return _reduce(spec, data.Y)


def _kernel_and_design(spec: LossSpec, theta, data):
    """The kernel of ``spec`` on ``data``, X^T as a C-contiguous array XT
    and the margins theta XT."""
    theta = np.asarray(theta, dtype=float)
    _check_dims(spec, theta, data)
    XT = np.ascontiguousarray(data.X.T)
    return _CountKernel(_groups(spec, data)), XT, theta @ XT


def loss_value(spec: LossSpec, theta, dataset: MultiLabelDataset | LabelCounts) -> float:
    kernel, _, u = _kernel_and_design(spec, theta, dataset)
    return kernel(u)[0]


def loss_gradient(spec: LossSpec, theta,
                  dataset: MultiLabelDataset | LabelCounts) -> np.ndarray:
    kernel, XT, u = _kernel_and_design(spec, theta, dataset)
    return XT @ kernel(u)[1]


def loss_hessian(spec: LossSpec, theta,
                 dataset: MultiLabelDataset | LabelCounts) -> np.ndarray:
    kernel, XT, u = _kernel_and_design(spec, theta, dataset)
    return _hessian(XT, kernel(u)[2])


def _hessian(XT: np.ndarray, w: np.ndarray) -> np.ndarray:
    """X^T diag(w) X, given X^T as a C-contiguous array XT: scaling its
    rows and the product both run along the long contiguous n axis, where
    w[:, None] * X has an inner axis of length d. It equals the broadcast
    form X^T (w[:, None] * X) to round-off, not bit for bit."""
    return (XT * w) @ XT.T


def _norm(v: np.ndarray) -> float:
    # np.linalg.norm of a 1-D float vector, bit for bit, without its checks
    return math.sqrt(v @ v)


def _separable(kernel: _CountKernel, theta, u) -> bool:
    """theta diverged, or is large and separates every training label: the
    loss has no finite minimizer."""
    norm = _norm(theta)
    return bool(norm > DIVERGENCE_THRESHOLD
                or (norm >= 10.0 and kernel.separated(u)))


def _newton(kernel: _CountKernel, XT: np.ndarray, theta: np.ndarray,
            grad_tol: float, max_iters: int):
    """Damped Newton with backtracking on ``kernel`` over the columns of XT,
    X^T as a C-contiguous d x n array, from theta. Returns (theta, u = theta
    XT, ||grad||, iterations, stop), stop the reason it stopped
    (``FitResult.stop_reason``)."""
    u = theta @ XT
    loss, coef, w = kernel(u)
    g = XT @ coef
    del coef
    gnorm = _norm(g)
    iterations = 0
    while True:
        if gnorm <= grad_tol:
            stop = "grad_tol"
            break
        if _norm(theta) > DIVERGENCE_THRESHOLD:
            stop = "diverged"
            break
        if iterations >= max_iters:
            stop = "max_iters"
            break
        H = _hessian(XT, w)
        # freed before the candidates allocate theirs (peak memory); the
        # line search binds each candidate's weights to w
        del w
        H.flat[::H.shape[0] + 1] += 1e-14  # a zero Hessian still solves
        try:
            step = np.linalg.solve(H, -g)
        except np.linalg.LinAlgError:
            step = g  # an ascent direction, replaced below
        if float(step @ g) >= 0:  # no descent direction: a gradient step
            step = -g / gnorm
        slope = float(g @ step)  # -lambda^2 for a Newton step
        # below the loss's round-off, take the full step and stop
        last = -slope <= DECREMENT_ROUNDOFF * max(1.0, abs(loss))

        # backtracking line search (Armijo)
        eta = 1.0
        for _ in range(60):
            cand = theta + eta * step
            cand_u = cand @ XT
            cand_loss, coef, w = kernel(cand_u)
            cand_g = XT @ coef
            del coef
            if last or cand_loss <= loss + 1e-4 * eta * slope:
                break
            eta *= 0.5
        else:
            stop = "no_descent"
            break
        theta, u, loss, g = cand, cand_u, cand_loss, cand_g
        gnorm = _norm(g)
        iterations += 1
        if last:
            stop = "decrement"
            break
    return theta, u, gnorm, iterations, stop


def fit(spec: LossSpec, dataset: MultiLabelDataset | LabelCounts,
        opts: SolverOptions = SolverOptions(), theta0=None) -> FitResult:
    """Minimize the empirical loss by damped Newton with backtracking.

    ``dataset`` holds the labels, or for a pooled ``spec`` only each row's
    count of +1 labels (``LabelCounts``; a per-labeler spec raises
    ``ValueError``): both give the same fit, bit for bit. Falls back to a
    gradient step whenever the Hessian solve fails or does not give a
    descent direction. Without ``theta0``, a fit on at least
    ``WARM_MIN_ROWS`` rows starts from the optimum of every
    ``WARM_STRIDE``-th row (solved to ``WARM_GRAD_TOL``), or from zeros when
    that subsample fit ends separable or without meeting its tolerance. The
    full-data loop alone decides the result: a fit whose theta diverged or
    separates every training label has no finite minimizer and reports
    separable=True; any other fit is converged when it stopped on
    ``GRAD_TOL`` or on the decrement rule, and raises NonConvergence when
    it did not.
    """
    if dataset.n == 0:
        raise ValueError("dataset is empty")
    theta = np.zeros(dataset.d) if theta0 is None else np.asarray(theta0, dtype=float).copy()
    _check_dims(spec, theta, dataset)
    groups = _groups(spec, dataset)
    warm = theta0 is None and dataset.n >= WARM_MIN_ROWS
    sub = _CountKernel([(link, M, k[::WARM_STRIDE]) for link, M, k in groups]) if warm else None
    kernel, XT = _CountKernel(groups), np.ascontiguousarray(dataset.X.T)
    # frees the counts _reduce made when every group is symmetric (each
    # kernel sums its own); a two-sided group's kernels keep their rows
    del groups
    warm_iterations = 0
    if warm:
        start, sub_u, _, warm_iterations, stop = _newton(
            sub, np.ascontiguousarray(XT[:, ::WARM_STRIDE]), theta,
            WARM_GRAD_TOL, opts.max_iters)
        if stop in CONVERGED_STOPS and not _separable(sub, start, sub_u):
            theta = start
    theta, u, gnorm, iterations, stop = _newton(kernel, XT, theta, GRAD_TOL,
                                                opts.max_iters)
    separable = _separable(kernel, theta, u)
    converged = not separable and stop in CONVERGED_STOPS
    if not (separable or converged):
        raise NonConvergence(f"no convergence in {iterations} iterations "
                             f"(stopped on {stop}, |grad|={gnorm:.3e})")
    return FitResult(theta_hat=theta, iterations=iterations,
                     final_gradient_norm=gnorm, separable=separable,
                     converged=converged, stop_reason=stop,
                     warm_iterations=warm_iterations)
