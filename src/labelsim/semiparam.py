"""Two-stage semiparametric pipeline and the crowdsourcing plug-in.

Stage 1 fits an initial direction by multi-label logistic ERM on a held-out
split and estimates each labeler's link by constrained least squares
(nondecreasing, Lipschitz, sigma(0) = 1/2, optionally symmetric). Written in
the increments outward from the centre knot, each bounded to [0, L * delta],
that is a bounded-variable least-squares problem, solved exactly by one BVLS
solve per link (two when the link is not symmetric);
`LinkFitDiagnostics.iterations` holds the BVLS iteration count per labeler,
summed over both solves when there are two. Stage 2 refits the parameter on
the remaining data with the per-labeler link loss.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .estimators import LossMode, LossSpec, NonConvergence, SolverOptions, fit
from .links import FitResult, LinkSpec, MultiLabelDataset, link_eval, tabulated_link

__all__ = [
    "ALPHA_FLOOR",
    "IsotonicFitOptions",
    "LinkFitDiagnostics",
    "SemiparametricResult",
    "AlphaEstimate",
    "fit_links",
    "fit_links_with_diagnostics",
    "semiparametric_fit",
    "crowdsourced_fit",
    "estimate_alpha",
]

ALPHA_FLOOR = 1e-3


@dataclass(frozen=True)
class IsotonicFitOptions:
    lipschitz: float = 1.0
    enforce_symmetry: bool = True
    grid_size: int = 512

    def __post_init__(self):
        if self.lipschitz <= 0:
            raise ValueError("Lipschitz constant must be positive")
        if self.grid_size < 16:
            raise ValueError("grid_size must be at least 16")


@dataclass(frozen=True)
class LinkFitDiagnostics:
    degenerate: tuple[bool, ...]  # per labeler: constant label column
    iterations: tuple[int, ...]


@dataclass(frozen=True)
class SemiparametricResult:
    fit: FitResult
    links: tuple[LinkSpec, ...]
    u_init: np.ndarray
    stage1_index: np.ndarray
    stage2_index: np.ndarray
    diagnostics: LinkFitDiagnostics


@dataclass(frozen=True)
class AlphaEstimate:
    """Per-labeler reliability estimates with separability/floor flags."""

    alpha: np.ndarray
    raw: np.ndarray
    separable: np.ndarray
    below_floor: np.ndarray


def _bvls_increments(w: np.ndarray, target: np.ndarray,
                     step: float) -> tuple[np.ndarray, int]:
    """Exact minimizer of sum_i w_i (sum_{j<=i} d_j - target_i)^2 over
    increments d in [0, step]; returns the cumulative sums and iterations."""
    from scipy.optimize import lsq_linear

    sw = np.sqrt(w / w.sum())  # normalized, so the solver's tol is relative
    cumsum = np.tril(np.ones((w.size, w.size)))
    res = lsq_linear(sw[:, None] * cumsum, sw * target, bounds=(0.0, step),
                     method="bvls")
    if not res.success:
        raise NonConvergence(f"link fit stopped after {res.nit} iterations")
    return np.cumsum(res.x), res.nit


def _fit_single_link(margins: np.ndarray, y01: np.ndarray,
                     opts: IsotonicFitOptions) -> tuple[LinkSpec, int]:
    half = float(np.max(np.abs(margins)))
    if half == 0:
        half = 1.0
    size = opts.grid_size + (opts.grid_size % 2 == 0)  # odd so 0 is a knot
    grid = np.linspace(-half, half, size)
    delta = grid[1] - grid[0]
    center = size // 2
    step = opts.lipschitz * delta

    idx = np.clip(np.rint((margins + half) / delta).astype(int), 0, size - 1)
    counts = np.bincount(idx, minlength=size).astype(float)
    sums = np.bincount(idx, weights=y01, minlength=size)
    target = np.where(counts > 0, sums / np.maximum(counts, 1.0), 0.5)
    # empty bins get a vanishing weight, so their knots follow the fitted
    # neighbours and every increment is unique
    w = np.maximum(counts, 1e-12)

    # values are 1/2 at the centre knot plus cumulative increments outward;
    # the [0, 1] box needs no constraint, since the targets lie in it and
    # clipping a monotone Lipschitz fit to it never raises the residual
    w_r, t_r = w[center + 1:], target[center + 1:]
    w_l, t_l = w[center - 1::-1], target[center - 1::-1]
    if opts.enforce_symmetry:
        # sigma(-z) = 1 - sigma(z) folds each mirrored pair into one target
        w_f = w_r + w_l
        t_f = (w_r * t_r + w_l * (1.0 - t_l)) / w_f
        rise, iters = _bvls_increments(w_f, t_f - 0.5, step)
        fall = rise
    else:
        rise, it_r = _bvls_increments(w_r, t_r - 0.5, step)
        fall, it_l = _bvls_increments(w_l, 0.5 - t_l, step)
        iters = it_r + it_l
    values = np.concatenate([0.5 - fall[::-1], [0.5], 0.5 + rise])
    link = tabulated_link(grid, np.clip(values, 0.0, 1.0),
                          lipschitz=opts.lipschitz,
                          symmetric=opts.enforce_symmetry)
    return link, iters


def fit_links_with_diagnostics(u_init, dataset: MultiLabelDataset,
                               opts: IsotonicFitOptions = IsotonicFitOptions()):
    u_init = np.asarray(u_init, dtype=float)
    if abs(np.linalg.norm(u_init) - 1.0) > 1e-8:
        raise ValueError("u_init must be a unit vector")
    if dataset.n == 0:
        raise ValueError("dataset is empty")
    margins = dataset.X @ u_init
    links, degenerate, iterations = [], [], []
    for j in range(dataset.m):
        col = dataset.Y[:, j]
        if col.size == 0:
            raise ValueError(f"labeler column {j} is empty")
        y01 = (col.astype(float) + 1.0) / 2.0
        link, iters = _fit_single_link(margins, y01, opts)
        links.append(link)
        degenerate.append(bool(np.all(col == col[0])))
        iterations.append(iters)
    diag = LinkFitDiagnostics(degenerate=tuple(degenerate),
                              iterations=tuple(iterations))
    return links, diag


def fit_links(u_init, dataset: MultiLabelDataset,
              opts: IsotonicFitOptions = IsotonicFitOptions()) -> list[LinkSpec]:
    """Per-labeler monotone-Lipschitz link estimates by constrained least
    squares on the margins <u_init, X_i>, labels encoded as {0, 1} targets."""
    links, _ = fit_links_with_diagnostics(u_init, dataset, opts)
    return links


def semiparametric_fit(dataset: MultiLabelDataset, split_fraction: float = 0.1,
                       opts: IsotonicFitOptions = IsotonicFitOptions(),
                       solver: SolverOptions = SolverOptions()) -> SemiparametricResult:
    """Two-stage fit: direction + links on the first split_fraction of rows,
    per-labeler-link ERM refit on the remainder."""
    if not 0.0 < split_fraction < 1.0:
        raise ValueError("split_fraction must lie in (0, 1)")
    n, d = dataset.n, dataset.d
    n1 = int(np.ceil(split_fraction * n))
    stage1 = np.arange(n1)
    stage2 = np.arange(n1, n)
    if stage1.size < d + 1 or stage2.size < d + 1:
        raise ValueError("split leaves fewer than d + 1 rows in a stage")
    assert np.intersect1d(stage1, stage2).size == 0
    assert stage1.size + stage2.size == n

    ds1 = MultiLabelDataset(X=dataset.X[stage1], Y=dataset.Y[stage1])
    ds2 = MultiLabelDataset(X=dataset.X[stage2], Y=dataset.Y[stage2])

    init = fit(LossSpec(mode=LossMode.MULTI_LABEL), ds1, solver)
    u_init = init.u_hat
    links, diag = fit_links_with_diagnostics(u_init, ds1, opts)

    refit_spec = LossSpec(mode=LossMode.PER_LABELER, links=tuple(links))
    result = fit(refit_spec, ds2, solver, theta0=u_init)
    return SemiparametricResult(fit=result, links=tuple(links), u_init=u_init,
                                stage1_index=stage1, stage2_index=stage2,
                                diagnostics=diag)


def crowdsourced_fit(dataset: MultiLabelDataset, alpha_estimate,
                     solver: SolverOptions = SolverOptions()) -> FitResult:
    """ERM with per-labeler scaled-logistic links at the estimated
    reliabilities; the returned estimate is normalized via FitResult.u_hat."""
    alpha = np.asarray(alpha_estimate, dtype=float)
    spec = LossSpec(mode=LossMode.CROWD_SCALED, alpha=alpha)
    return fit(spec, dataset, solver)


def _alpha_score(a: float, margins: np.ndarray, y: np.ndarray) -> float:
    # derivative of the per-labeler logistic log-likelihood in the scalar a
    from .links import logistic_link

    lr = logistic_link()
    return float(np.sum(y * margins * link_eval(lr, -y * a * margins)))


def estimate_alpha(dataset: MultiLabelDataset, u_ref) -> AlphaEstimate:
    """Per-labeler reliability by one-dimensional logistic MLE on the margins
    <u_ref, X_i>; a labeler whose 1-D problem is separable (or whose estimate
    falls below the 1e-3 floor) is flagged."""
    u_ref = np.asarray(u_ref, dtype=float)
    if abs(np.linalg.norm(u_ref) - 1.0) > 1e-8:
        raise ValueError("u_ref must be a unit vector")
    margins = dataset.X @ u_ref
    m = dataset.m
    raw = np.empty(m)
    separable = np.zeros(m, dtype=bool)
    bound = 1e4
    for j in range(m):
        y = dataset.Y[:, j].astype(float)
        # the score is strictly decreasing in a, so bracket its unique zero
        lo, hi = 0.0, 1.0
        s0 = _alpha_score(0.0, margins, y)
        if s0 <= 0:
            lo, hi = -1.0, 0.0
            while _alpha_score(lo, margins, y) <= 0:
                lo *= 2.0
                if lo < -bound:
                    separable[j] = True
                    break
        else:
            while _alpha_score(hi, margins, y) >= 0:
                hi *= 2.0
                if hi > bound:
                    separable[j] = True
                    break
        if separable[j]:
            raw[j] = np.sign(s0) * bound
            continue
        from scipy import optimize

        raw[j] = optimize.brentq(
            lambda a: _alpha_score(a, margins, y), lo, hi, xtol=1e-10)
    below = raw < ALPHA_FLOOR
    alpha = np.maximum(raw, ALPHA_FLOOR)
    return AlphaEstimate(alpha=alpha, raw=raw, separable=separable,
                         below_floor=below)
