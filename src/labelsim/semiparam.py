"""Two-stage semiparametric pipeline and the crowdsourcing plug-in.

Stage 1 fits an initial direction by multi-label logistic ERM on a held-out
split and estimates each labeler's link by constrained least squares
(nondecreasing, Lipschitz, sigma(0) = 1/2, optionally symmetric). Written
outward from the centre knot, each side is a chain whose increments lie in
[0, L * delta]: Lipschitz isotonic regression on a chain, solved exactly by
a dynamic program over the chain (one per link, two when the link is not
symmetric; Yeganova & Wilbur 2009). `LinkFitDiagnostics.iterations` holds
the number of free increments of that solve per labeler, those strictly
inside (0, L * delta), summed over both sides when there are two. Knots
whose bins hold no data (for a symmetric link: neither mirrored bin) carry
no weight, so the objective does not fix them; they are set by linear
interpolation between the nearest knots with data and held flat past the
outermost one. Stage 2 refits the parameter on the remaining data with the
per-labeler link loss.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import optimize
from scipy.special import expit

from .estimators import LossMode, LossSpec, fit
from .links import (
    FitResult,
    LinkSpec,
    MultiLabelDataset,
    scaled_logistic_link,
    tabulated_link,
)

__all__ = [
    "ALPHA_FLOOR",
    "IsotonicFitOptions",
    "LinkFitDiagnostics",
    "SemiparametricResult",
    "AlphaEstimate",
    "fit_links_with_diagnostics",
    "split_stages",
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
    # per labeler: increments strictly inside (0, L * delta), at most one
    # per knot beside the centre
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


def _chain_fit(w: np.ndarray, target: np.ndarray,
               step: float) -> tuple[np.ndarray, int]:
    """Exact minimizer of sum_i w_i (x_i - target_i)^2 over chains with
    x_{-1} = 0 and increments x_i - x_{i-1} in [0, step]; returns x and the
    number of increments strictly inside their bounds.

    Dynamic programming over the chain: f_i(x), the least cost of the first
    i + 1 points with x_i = x, is convex, so its derivative is kept as
    nondecreasing piecewise-linear knots (pos, val); a repeated position is
    a jump. f_i is the windowed minimum of f_{i-1} over [x - step, x], whose
    derivative is f_{i-1}' with a flat zero piece [a, a + step] inserted at
    the minimizer a and the part right of it shifted by step, plus
    2 w_i (x - target_i). Backtracking clamps each stored minimizer to the
    window below the next point.
    """
    n = w.size
    pos = np.array([0.0, step])
    val = 2.0 * w[0] * (pos - target[0])
    argmin = np.empty(n + 1)
    argmin[0] = 0.0  # x_{-1}
    for i in range(1, n + 1):
        # minimizer of f_{i-1}: where its derivative crosses zero
        k = int(np.searchsorted(val, 0.0))
        if k == 0:
            a = pos[0]
        elif k == pos.size:
            a = pos[-1]
        else:
            a = pos[k - 1] - val[k - 1] * (pos[k] - pos[k - 1]) / (val[k] - val[k - 1])
        argmin[i] = a
        if i == n:
            break
        pos = np.concatenate((pos[:k], (a, a + step), pos[k:] + step))
        val = np.concatenate((val[:k], (0.0, 0.0), val[k:]))
        val += 2.0 * w[i] * (pos - target[i])
    x = np.empty(n)
    x[-1] = argmin[n]
    free = 0
    for i in range(n - 1, -1, -1):
        a = argmin[i]
        below = x[i] - step
        free += below < a < x[i]
        if i:
            x[i - 1] = min(max(a, below), x[i])
    return x, int(free)


def _fill_empty(x: np.ndarray, has_data: np.ndarray) -> np.ndarray:
    """The chain x (knots 1..K outward from the centre knot, which is 0)
    with each knot whose bin holds no data set by linear interpolation
    between the nearest knots that do, the centre counted, and held flat
    past the last of them. Empty bins weigh 1e-12, so the objective is flat
    there to rounding; this fixes their values independently of the solver
    and keeps every increment in [0, L * delta]."""
    knots = np.flatnonzero(has_data) + 1
    return np.interp(np.arange(1, x.size + 1), np.concatenate(([0], knots)),
                     np.concatenate(([0.0], x[knots - 1])))


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
    # empty bins get a vanishing weight, so every increment is unique;
    # _fill_empty then sets their knots from the bins with data
    w = np.maximum(counts, 1e-12)

    # values are 1/2 at the centre knot plus cumulative increments outward;
    # the [0, 1] box needs no constraint, since the targets lie in it and
    # clipping a monotone Lipschitz fit to it never raises the residual
    w_r, t_r = w[center + 1:], target[center + 1:]
    w_l, t_l = w[center - 1::-1], target[center - 1::-1]
    has_r, has_l = counts[center + 1:] > 0, counts[center - 1::-1] > 0
    if opts.enforce_symmetry:
        # sigma(-z) = 1 - sigma(z) folds each mirrored pair into one target
        w_f = w_r + w_l
        t_f = (w_r * t_r + w_l * (1.0 - t_l)) / w_f
        rise, iters = _chain_fit(w_f, t_f - 0.5, step)
        rise = _fill_empty(rise, has_r | has_l)
        fall = rise
    else:
        rise, free_r = _chain_fit(w_r, t_r - 0.5, step)
        fall, free_l = _chain_fit(w_l, 0.5 - t_l, step)
        rise, fall = _fill_empty(rise, has_r), _fill_empty(fall, has_l)
        iters = free_r + free_l
    values = np.concatenate([0.5 - fall[::-1], [0.5], 0.5 + rise])
    link = tabulated_link(grid, np.clip(values, 0.0, 1.0),
                          lipschitz=opts.lipschitz,
                          symmetric=opts.enforce_symmetry)
    return link, iters


def fit_links_with_diagnostics(u_init, dataset: MultiLabelDataset,
                               opts: IsotonicFitOptions = IsotonicFitOptions()
                               ) -> tuple[list[LinkSpec], LinkFitDiagnostics]:
    """Per-labeler monotone-Lipschitz link estimates by constrained least
    squares on the margins <u_init, X_i>, labels encoded as {0, 1} targets,
    with the fit's diagnostics."""
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


def split_stages(dataset: MultiLabelDataset, split_fraction: float
                 ) -> tuple[MultiLabelDataset, MultiLabelDataset]:
    """The first ceil(split_fraction * n) rows (stage 1) and the rest
    (stage 2). Raises ValueError unless split_fraction lies in (0, 1) and
    each stage keeps at least d + 1 rows."""
    if not 0.0 < split_fraction < 1.0:
        raise ValueError("split_fraction must lie in (0, 1)")
    n1 = int(np.ceil(split_fraction * dataset.n))
    if min(n1, dataset.n - n1) < dataset.d + 1:
        raise ValueError("split leaves fewer than d + 1 rows in a stage")
    return (MultiLabelDataset(X=dataset.X[:n1], Y=dataset.Y[:n1]),
            MultiLabelDataset(X=dataset.X[n1:], Y=dataset.Y[n1:]))


def semiparametric_fit(dataset: MultiLabelDataset, split_fraction: float = 0.1,
                       opts: IsotonicFitOptions = IsotonicFitOptions()
                       ) -> SemiparametricResult:
    """Two-stage fit: direction + links on the first split_fraction of rows,
    per-labeler-link ERM refit on the remainder (``split_stages``)."""
    ds1, ds2 = split_stages(dataset, split_fraction)
    init = fit(LossSpec(mode=LossMode.MULTI_LABEL), ds1)
    u_init = init.u_hat
    links, diag = fit_links_with_diagnostics(u_init, ds1, opts)

    refit_spec = LossSpec(mode=LossMode.PER_LABELER, links=tuple(links))
    result = fit(refit_spec, ds2, theta0=u_init)
    return SemiparametricResult(fit=result, links=tuple(links), u_init=u_init,
                                stage1_index=np.arange(ds1.n),
                                stage2_index=np.arange(ds1.n, dataset.n),
                                diagnostics=diag)


def crowdsourced_fit(dataset: MultiLabelDataset, alpha_estimate) -> FitResult:
    """ERM with the per-labeler links scaled_logistic_link(a), one for each
    estimated reliability a; the returned estimate is normalized via
    FitResult.u_hat."""
    links = tuple(scaled_logistic_link(a)
                  for a in np.asarray(alpha_estimate, dtype=float))
    return fit(LossSpec(mode=LossMode.CROWD_SCALED, links=links), dataset)


def _alpha_score(a: float, margins: np.ndarray, y: np.ndarray) -> float:
    # derivative of the per-labeler logistic log-likelihood in the scalar a
    return float(np.sum(y * margins * expit(-y * a * margins)))


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
        raw[j] = optimize.brentq(
            lambda a: _alpha_score(a, margins, y), lo, hi, xtol=1e-10)
    below = raw < ALPHA_FLOOR
    alpha = np.maximum(raw, ALPHA_FLOOR)
    return AlphaEstimate(alpha=alpha, raw=raw, separable=separable,
                         below_floor=below)
