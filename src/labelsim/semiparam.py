"""Two-stage semiparametric pipeline and the crowdsourcing plug-in.

Stage 1 fits an initial direction by multi-label logistic ERM on a held-out
split and estimates each labeler's link by constrained least squares
(nondecreasing, Lipschitz, sigma(0) = 1/2, optionally symmetric). Written
outward from the centre knot, each side is a chain whose increments lie in
[0, L * delta]: Lipschitz isotonic regression on a chain, solved exactly by
a dynamic program over the chain (one per link, two when the link is not
symmetric; Yeganova & Wilbur 2009). The program keeps the derivative's
knots on two stacks, split at the current minimizer, whose lazy affine
offsets and lazy shift absorb each point's update, so a point costs O(1)
work in plain Python floats plus one move per knot crossing the minimizer,
about one per point on stage-1 chains (`_chain_fit`).
`LinkFitDiagnostics.iterations` holds the number of free increments of
that solve per labeler, those inside (0, L * delta) by more than a stated
round-off margin (`FREE_MARGIN`), summed over both sides when there are
two. Knots whose bins hold no data (for a symmetric link: neither mirrored
bin) carry no weight, so the objective does not fix them; they are set by
linear interpolation between the nearest knots with data and held flat
past the outermost one. Stage 2 refits the parameter on the remaining data
with the per-labeler link loss.
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
# an increment x_i - x_{i-1} counts as free only when it is inside
# (0, L * delta) by more than FREE_MARGIN * (L * delta + |x_i|), the
# round-off of the chain's positions
FREE_MARGIN = 64 * np.finfo(float).eps


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
    # per labeler: increments inside (0, L * delta) by more than the
    # round-off margin (FREE_MARGIN), at most one per knot beside the centre
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
    number of increments inside their bounds by more than the round-off
    margin FREE_MARGIN * (step + |x_i|).

    Dynamic programming over the chain: f_i(x), the least cost of the first
    i + 1 points with x_i = x, is convex, so its derivative is kept as
    nondecreasing piecewise-linear knots (pos, val); a repeated position is
    a jump. f_i is the windowed minimum of f_{i-1} over [x - step, x], whose
    derivative is f_{i-1}' with a flat zero piece [a, a + step] inserted at
    the minimizer a and the part right of it shifted by step, plus
    2 w_i (x - target_i).

    The knots sit on two stacks split at the minimizer, each with its top
    nearest it: L holds those with val < 0, R those with val >= 0. No knot
    is rewritten when a point is added; each stack carries lazy terms
    instead. A knot of L stores (pos, val - slope * pos - off_l), one of R
    stores (q, val - slope * q - off_r) with pos = q + shift. Point i sets
    shift = (i + 1) * step, which moves all of R right by step, and adds
    2 w_i to slope, -2 w_i target_i to off_l and 2 w_i (shift - target_i)
    to off_r: the added linear term, on every knot at once. The ends of the
    flat piece, whose val is now 2 w_i (a - target_i) and 2 w_i (a + step -
    target_i), are pushed onto the stacks their signs pick, and top knots
    move across until the two tops differ in sign. The new minimizer
    interpolates between the tops with the values that walk computed, not
    recomputed ones, which can round to a tie. A point costs O(1) Python
    float operations plus one per knot that crosses the minimizer: about
    one crossing per point on stage-1 chains, all of them at worst, when
    heavy targets far out of reach alternate sides. Backtracking clamps
    each stored minimizer to the window below the next point.
    """
    w2 = 2.0 * w
    tw2 = w2 * target
    shifts = step * np.arange(1, w.size + 1)
    frames = zip(w2.tolist(), tw2.tolist(), shifts.tolist(),
                 np.cumsum(w2).tolist(), (-np.cumsum(tw2)).tolist(),
                 np.cumsum(w2 * shifts - tw2).tolist())
    l_stack, r_stack = [], []
    l_push, l_pop = l_stack.append, l_stack.pop
    r_push, r_pop = r_stack.append, r_stack.pop
    a = shift = 0.0  # x_{-1}, and no shift before the first point
    argmin = [a]
    for wi2, twi2, next_shift, slope, off_l, off_r in frames:
        # the flat piece [a, a + step]: its right end is q1 in R's frame
        q1 = a - shift
        shift = next_shift
        p0, p1 = a, q1 + shift
        v0, v1 = wi2 * p0 - twi2, wi2 * p1 - twi2
        if v0 >= 0.0:
            # both ends are >= 0: push them onto R, then move L's top
            # knots across while they are >= 0
            r_push((q1, v1 - slope * q1 - off_r))
            q0 = p0 - shift
            r_push((q0, v0 - slope * q0 - off_r))
            p1, v1 = p0, v0
            while l_stack:
                p0, c = l_stack[-1]
                v0 = c + slope * p0 + off_l
                if v0 < 0.0:
                    break
                l_pop()
                q0 = p0 - shift
                r_push((q0, v0 - slope * q0 - off_r))
                p1, v1 = p0, v0
        elif v1 < 0.0:
            # both ends are < 0: the mirror image
            l_push((p0, v0 - slope * p0 - off_l))
            l_push((p1, v1 - slope * p1 - off_l))
            p0, v0 = p1, v1
            while r_stack:
                q1, c = r_stack[-1]
                p1, v1 = q1 + shift, c + slope * q1 + off_r
                if v1 >= 0.0:
                    break
                r_pop()
                l_push((p1, v1 - slope * p1 - off_l))
                p0, v0 = p1, v1
        else:
            l_push((p0, v0 - slope * p0 - off_l))
            r_push((q1, v1 - slope * q1 - off_r))
        # the minimizer: where the derivative crosses zero, v0 < 0 <= v1
        if not l_stack:
            a = p1
        elif not r_stack:
            a = p0
        else:
            a = p0 - v0 * (p1 - p0) / (v1 - v0)
        argmin.append(a)
    x = [a]
    hi = a
    for a in argmin[-2:0:-1]:
        lo = hi - step
        hi = lo if a < lo else hi if a > hi else a
        x.append(hi)
    x = np.array(x[::-1])
    lo, a = x - step, np.array(argmin[:-1])
    margin = FREE_MARGIN * (step + np.abs(x))
    return x, int(np.count_nonzero((lo + margin < a) & (a < x - margin)))


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


def _bin_margins(margins: np.ndarray, opts: IsotonicFitOptions):
    """The link grid over [-max |margin|, max |margin|], odd-sized so that 0
    is a knot, each margin's nearest knot and the margin count per knot;
    every labeler's fit shares them."""
    half = float(np.max(np.abs(margins)))
    if half == 0:
        half = 1.0
    size = opts.grid_size + (opts.grid_size % 2 == 0)
    grid = np.linspace(-half, half, size)
    delta = grid[1] - grid[0]
    idx = np.clip(np.rint((margins + half) / delta).astype(int), 0, size - 1)
    return grid, idx, np.bincount(idx, minlength=size).astype(float)


def _fit_single_link(grid: np.ndarray, idx: np.ndarray, counts: np.ndarray,
                     y01: np.ndarray, opts: IsotonicFitOptions
                     ) -> tuple[LinkSpec, int]:
    size = grid.size
    center = size // 2
    step = opts.lipschitz * (grid[1] - grid[0])

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
    bins = _bin_margins(dataset.X @ u_init, opts)
    links, degenerate, iterations = [], [], []
    for j in range(dataset.m):
        col = dataset.Y[:, j]
        y01 = (col.astype(float) + 1.0) / 2.0
        link, iters = _fit_single_link(*bins, y01, opts)
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
