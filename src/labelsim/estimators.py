"""Convex ERM solvers for the link-based losses.

The per-sample loss is l_{sigma,theta}(y | x) = -int_0^{y<theta,x>} sigma(-v) dv,
which specializes to the logistic loss (up to an additive constant) for the
logistic link. The four ``LossMode``s count labels in one of two ways, and
each way has its own loss kernel over the margins u = X theta:

  binomial     k_i of M labels are +1 under the one model link, so row i
               costs k_i S(-u_i) + (M - k_i) S(u_i) with S the link
               antiderivative. MultiLabel counts k_i = #{j: Y_ij = +1} out of
               M = m; MajorityVote counts the row's majority label (seeded
               fair tie-break) out of M = 1.
  per-labeler  labeler j has its own link, evaluated at -Y_ij u_i.
               PerLabelerLinks and CrowdScaled both take the links as given:
               the semiparametric refit's fitted links, or the crowd
               plug-in's scaled-logistic links
               sigma(t) = 1/(1 + exp(-alpha_j t)) at the estimated
               reliabilities, which at alpha = 1 give the plain multi-label
               logistic loss.

A kernel is one call, ``kernel(u) -> (loss, c, w)``: the mean loss, the
coefficients c of the gradient X^T c and the weights w of the Hessian
X^T diag(w) X, all from one evaluation of each link (``links.link_terms``,
which returns S, sigma and sigma' together). The binomial kernel needs the
link at +u and -u. A logistic link is symmetric, S(-u) = S(u) - u,
sigma(-u) = 1 - sigma(u) and sigma'(-u) = sigma'(u), so one evaluation at u
gives each row's loss M S(u) - k u, c = M sigma(u) - k and w = M sigma'(u),
all over n M. A tabulated link is symmetric only to a tolerance, so it is
evaluated at u and at -u. The per-labeler kernel evaluates each labeler's
link once, at -Y_ij u_i.

``fit`` reduces the labels to a kernel and copies X to a contiguous X^T
once (each Hessian is then one matrix product), then runs damped Newton
until the gradient norm reaches ``grad_tol``, theta diverges, no step
decreases the loss, or the Newton decrement lambda^2 = g^T H^{-1} g falls to
the loss's round-off (Boyd & Vandenberghe, Convex Optimization, 9.5.1). In
the last case it takes the full Newton step, whose decrease a line search
cannot resolve.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .datagen import majority_vote_matrix
from .links import (
    FitResult,
    LinkFamily,
    LinkSpec,
    MultiLabelDataset,
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


class NonConvergence(RuntimeError):
    pass


class DimensionMismatch(ValueError):
    pass


class LossMode(Enum):
    MULTI_LABEL = "multilabel"
    MAJORITY_VOTE = "majority"
    PER_LABELER = "per-labeler"
    # the same loss as PER_LABELER; a mode of its own only so that the
    # benchmark tracer (perfbench/tracing.py, FIT_MODES) can count crowd fits
    # apart from semiparametric refits
    CROWD_SCALED = "crowd-scaled"


_PER_LABELER_MODES = (LossMode.PER_LABELER, LossMode.CROWD_SCALED)


@dataclass(frozen=True)
class LossSpec:
    mode: LossMode
    model_link: LinkSpec = field(default_factory=logistic_link)
    links: tuple[LinkSpec, ...] | None = None
    tie_seed: int = 0
    tie_trial: int = 0

    def __post_init__(self):
        if self.mode in _PER_LABELER_MODES:
            if not self.links:
                raise ValueError(f"{self.mode.value} mode needs a link per labeler")
            object.__setattr__(self, "links", tuple(self.links))


@dataclass(frozen=True)
class SolverOptions:
    max_iters: int = 200
    grad_tol: float = 1e-10
    divergence_threshold: float = 1e4
    ridge: float = 0.0


def link_loss(link: LinkSpec, theta, x, y) -> float:
    """Per-sample link loss -int_0^{y<theta,x>} sigma(-v) dv.

    By the substitution w = -v this equals int_0^{-y<theta,x>} sigma(w) dw,
    evaluated through the link's exact antiderivative.
    """
    margin = float(np.dot(np.asarray(theta, float), np.asarray(x, float)))
    return float(link_antiderivative(link, -y * margin))


class _BinomialKernel:
    """k_i of M labels are +1, all under one link, evaluated at +-u.

    ``kernel(u)`` returns (loss, c, w): the mean loss over the n*M labels, c
    with gradient X^T c, and w with Hessian X^T diag(w) X. A logistic link
    takes one evaluation at u, a tabulated link one at u and one at -u.
    """

    def __init__(self, link: LinkSpec, k: np.ndarray, M: int):
        self.link, self.k, self.M = link, k, float(M)
        self.scale = k.size * self.M
        self.one_sided = link.family is not LinkFamily.TABULATED_MONOTONE

    def __call__(self, u: np.ndarray):
        if self.one_sided:
            return self._one_sided(u)
        return self._two_sided(u)

    def _one_sided(self, u: np.ndarray):
        # M S(u) - k u, M sigma(u) - k and M sigma'(u), in place
        k, M, scale = self.k, self.M, self.scale
        anti, value, deriv = link_terms(self.link, u)
        loss = float((M * anti.sum() - k @ u) / scale)
        del anti
        value *= M
        value -= k
        value /= scale
        deriv *= M
        deriv /= scale
        return loss, value, deriv

    def _two_sided(self, u: np.ndarray):
        k, scale = self.k, self.scale
        anti, value, deriv = link_terms(self.link, u)
        anti_m, value_m, deriv_m = link_terms(self.link, -u)
        rest = self.M - k  # labels that are -1
        # k S(-u) + (M - k) S(u), (M - k) sigma(u) - k sigma(-u) and
        # k sigma'(-u) + (M - k) sigma'(u), in place
        anti_m *= k
        anti *= rest
        anti_m += anti
        loss = float(anti_m.sum() / scale)
        del anti, anti_m
        value *= rest
        value_m *= k
        value -= value_m
        value /= scale
        del value_m
        w = k * deriv_m
        deriv *= rest
        w += deriv
        w /= scale
        return loss, value, w

    def separated(self, u: np.ndarray) -> bool:
        return bool(np.all(np.where(u > 0, self.k == self.M, (u < 0) & (self.k == 0))))


class _PerLabelerKernel:
    """Labeler j scores its column with its own link, evaluated once per
    call at -Y_ij u_i. ``Y`` stays int8. Same call as ``_BinomialKernel``."""

    def __init__(self, links: tuple[LinkSpec, ...], Y: np.ndarray):
        self.links, self.Y = links, Y
        self.scale = Y.shape[0] * Y.shape[1]

    def __call__(self, u: np.ndarray):
        loss = 0.0
        coef = np.zeros(u.size)
        w = np.zeros(u.size)
        for j, link in enumerate(self.links):
            yj = self.Y[:, j]
            t = yj * u
            np.negative(t, out=t)
            anti, value, deriv = link_terms(link, t)
            loss += float(anti.sum())
            value *= yj
            coef -= value
            w += deriv
            del t, anti, value, deriv  # free them before the next labeler runs
        coef /= self.scale
        w /= self.scale
        return loss / self.scale, coef, w

    def separated(self, u: np.ndarray) -> bool:
        return bool(np.all(self.Y * u[:, None] > 0))


def _check_dims(spec: LossSpec, theta: np.ndarray, dataset: MultiLabelDataset):
    if theta.shape != (dataset.d,):
        raise DimensionMismatch(
            f"theta has shape {theta.shape}, expected ({dataset.d},)")
    if spec.mode in _PER_LABELER_MODES and len(spec.links) != dataset.m:
        raise DimensionMismatch("need one link per labeler column")


def _reduce(spec: LossSpec, dataset: MultiLabelDataset):
    """The loss kernel of ``spec`` on ``dataset``, with the labels counted."""
    Y = dataset.Y
    if spec.mode is LossMode.MULTI_LABEL:
        return _BinomialKernel(spec.model_link, (Y == 1).sum(axis=1).astype(float),
                               dataset.m)
    if spec.mode is LossMode.MAJORITY_VOTE:
        ybar = majority_vote_matrix(Y, spec.tie_seed, spec.tie_trial)
        return _BinomialKernel(spec.model_link, (ybar.astype(float) + 1.0) / 2.0, 1)
    return _PerLabelerKernel(spec.links, Y)


def _kernel_and_margins(spec: LossSpec, theta, dataset: MultiLabelDataset):
    theta = np.asarray(theta, dtype=float)
    _check_dims(spec, theta, dataset)
    return _reduce(spec, dataset), dataset.X @ theta


def loss_value(spec: LossSpec, theta, dataset: MultiLabelDataset) -> float:
    kernel, u = _kernel_and_margins(spec, theta, dataset)
    return kernel(u)[0]


def loss_gradient(spec: LossSpec, theta, dataset: MultiLabelDataset) -> np.ndarray:
    kernel, u = _kernel_and_margins(spec, theta, dataset)
    return dataset.X.T @ kernel(u)[1]


def loss_hessian(spec: LossSpec, theta, dataset: MultiLabelDataset) -> np.ndarray:
    kernel, u = _kernel_and_margins(spec, theta, dataset)
    X = dataset.X
    return _hessian(X, np.ascontiguousarray(X.T), kernel(u)[2])


def _hessian(X: np.ndarray, XT: np.ndarray, w: np.ndarray) -> np.ndarray:
    """X^T diag(w) X, given XT, a C-contiguous copy of X^T. Scaling the
    rows of XT runs along its long contiguous axis, unlike w[:, None] * X,
    whose inner axis has length d; the product is the same bit for bit."""
    return X.T @ (XT * w).T


def fit(spec: LossSpec, dataset: MultiLabelDataset,
        opts: SolverOptions = SolverOptions(), theta0=None) -> FitResult:
    """Minimize the empirical loss by damped Newton with backtracking.

    Falls back to a gradient step whenever the (ridge-regularized) Hessian
    solve fails or does not give a descent direction. A fit whose theta
    diverged or separates every training label has no finite minimizer and
    reports separable=True; any other fit is converged when ||grad|| <=
    max(grad_tol, 1e-8) and raises NonConvergence when it is not.
    """
    if dataset.n == 0:
        raise ValueError("dataset is empty")
    d, X, ridge = dataset.d, dataset.X, opts.ridge
    theta = np.zeros(d) if theta0 is None else np.asarray(theta0, dtype=float).copy()
    kernel, u = _kernel_and_margins(spec, theta, dataset)
    XT = np.ascontiguousarray(X.T)

    def evaluate(th, u):
        # loss, gradient and Hessian weights at theta = th, u = X th
        loss, coef, w = kernel(u)
        return loss + 0.5 * ridge * float(th @ th), X.T @ coef + ridge * th, w

    loss, g, w = evaluate(theta, u)
    iterations = 0
    while (iterations < opts.max_iters and np.linalg.norm(g) > opts.grad_tol
           and np.linalg.norm(theta) <= opts.divergence_threshold):
        H = _hessian(X, XT, w) + ridge * np.eye(d)
        # freed before the candidates allocate theirs (peak memory); the
        # line search binds each candidate's weights to w
        del w
        step = None
        try:
            step = np.linalg.solve(H + 1e-14 * np.eye(d), -g)
            if float(step @ g) >= 0:
                step = None
        except np.linalg.LinAlgError:
            pass
        if step is None:
            step = -g / max(float(np.linalg.norm(g)), 1e-300)
        slope = float(g @ step)  # -lambda^2 for a Newton step
        # below the loss's round-off, take the full step and stop
        last = -slope <= DECREMENT_ROUNDOFF * max(1.0, abs(loss))

        # backtracking line search (Armijo)
        eta = 1.0
        for _ in range(60):
            cand = theta + eta * step
            cand_u = X @ cand
            cand_loss, cand_g, w = evaluate(cand, cand_u)
            if last or cand_loss <= loss + 1e-4 * eta * slope:
                break
            eta *= 0.5
        else:
            break  # no step decreases the loss
        theta, u, loss, g = cand, cand_u, cand_loss, cand_g
        iterations += 1
        if last:
            break

    gnorm = float(np.linalg.norm(g))
    separable = bool(np.linalg.norm(theta) > opts.divergence_threshold
                     or (np.linalg.norm(theta) >= 10.0 and kernel.separated(u)))
    converged = not separable and gnorm <= max(opts.grad_tol, 1e-8)
    if not (separable or converged):
        raise NonConvergence(f"no convergence in {iterations} iterations "
                             f"(|grad|={gnorm:.3e})")
    return FitResult(theta_hat=theta, iterations=iterations,
                     final_gradient_norm=gnorm, separable=separable,
                     converged=converged)
