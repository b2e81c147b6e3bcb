"""Seeded sampling of covariates, per-labeler labels, label counts and
majority votes.

Every sampling routine derives an independent RNG stream from
(seed, trial, purpose), so a draw is the same whichever thread makes it
and in whatever order (the Monte Carlo engine draws the next dataset on a
helper thread while the current one is fitted). Covariates come back
column-major, so X^T is a C-contiguous d x n view: the layout in which
``estimators.fit`` and each sampler's X theta* run along the long axis.
Gaussian covariates and the labels' uniforms are drawn in row blocks of
at most ``links.COUNT_BLOCK`` numbers, in stream order, and written
straight into their result: the bits of one whole draw, with one block of
temporaries instead of a second n x d or an n x m float64 copy.

A pooled fit reads only each row's count of +1 labels: Monte Carlo
multi-label trials draw those counts (``sample_label_counts``),
majority-vote trials their n x 1 vote column (``sample_majority_votes``),
and per-labeler estimators the n x m labels (``sample_labels``).
"""

from __future__ import annotations

import zlib

import numpy as np

from .links import (
    COUNT_BLOCK,
    CovariateDistribution,
    CovariateKind,
    ModelSpec,
    MultiLabelDataset,
    _count_positive,
    group_links,
    link_eval,
)
from .theory import _link_probs

__all__ = [
    "stream_rng",
    "sample_covariates",
    "sample_labels",
    "sample_label_counts",
    "sample_dataset",
    "sample_majority_votes",
    "majority_vote_matrix",
]

# From this many labelers on, sample_label_counts draws each row's count
# from its binomial law instead of counting the labels of sample_labels.
# Median times at n = 20000, one link, one BLAS thread (2-core x86 host):
# the labels and their count took 1.47 / 2.35 / 2.66 ms at m = 16 / 28 /
# 32, one binomial draw 2.03 / 2.41 / 2.53 ms (2.7 ms at m = 1024).
LABEL_COUNT_CROSSOVER = 32


def stream_rng(seed: int, trial: int = 0, purpose: str = "") -> np.random.Generator:
    """RNG for one (trial, purpose) stream under a master seed."""
    tag = zlib.crc32(purpose.encode()) & 0xFFFFFFFF
    return np.random.default_rng(np.random.SeedSequence([int(seed), int(trial), tag]))


def sample_covariates(dist: CovariateDistribution, n: int, seed: int, trial: int = 0) -> np.ndarray:
    """Draw n i.i.d. covariate rows; deterministic given (seed, trial).

    The rows are drawn in stream order and returned in column-major
    (Fortran) order, so that X^T is a C-contiguous view for every fit of
    the trial. Gaussian rows are drawn in blocks of at most ``COUNT_BLOCK``
    numbers and written into X block by block: the values, bit for bit, of
    one row-major n x d draw, without that n x d copy. The beta-regular
    branch draws its gammas, signs and normals whole, in that order."""
    if n < 1:
        raise ValueError("need n >= 1")
    rng = stream_rng(seed, trial, "covariates")
    if dist.kind is CovariateKind.ISOTROPIC_GAUSSIAN:
        X = np.empty((n, dist.d), order="F")
        for block in _row_blocks(n, dist.d):
            X[block] = rng.standard_normal((block.stop - block.start, dist.d))
        return X
    u = dist.direction
    z = rng.gamma(dist.beta, 1.0, size=n) * rng.choice([-1.0, 1.0], size=n)
    w = rng.standard_normal((n, dist.d))
    w -= np.outer(w @ u, u)
    return np.asfortranarray(np.outer(z, u) + w)


def _row_blocks(n: int, width: int):
    """Slices of consecutive rows, each at most ``COUNT_BLOCK`` numbers of
    an n x width array (at least one row), covering its n rows in order."""
    rows = max(1, COUNT_BLOCK // width)
    return [slice(start, min(start + rows, n)) for start in range(0, n, rows)]


def _covariates(model: ModelSpec, X) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    if X.shape[1] != model.d:
        raise ValueError("covariate dimension mismatch")
    return X


def _positive_labels(model: ModelSpec, X: np.ndarray, rng: np.random.Generator,
                     grouping) -> np.ndarray:
    """The n x m booleans Y_ij = +1, where u_ij < p_ij for uniforms u from
    ``rng``. The uniforms are drawn in row blocks of at most ``COUNT_BLOCK``
    numbers, in stream order (the bits of one n x m draw), and each block
    is compared into its rows of the result, so the draw holds one block
    of float64 uniforms, not n x m of them. Each link group (``grouping``,
    from ``group_links``) is evaluated once over the n margins and compared
    with all of its columns in one broadcast (the whole block when every
    labeler shares one link)."""
    margins = X @ model.theta_star
    n, m = X.shape[0], model.m
    distinct, index = grouping
    probs = [link_eval(link, margins)[:, None] for link in distinct]
    columns = ([slice(None)] if len(distinct) == 1
               else [np.flatnonzero(index == g) for g in range(len(distinct))])
    positive = np.empty((n, m), dtype=bool)
    for block in _row_blocks(n, m):
        uniforms = rng.random((block.stop - block.start, m))
        for p, cols in zip(probs, columns):
            positive[block, cols] = uniforms[:, cols] < p[block]
    return positive


def sample_labels(model: ModelSpec, X: np.ndarray, seed: int, trial: int = 0) -> np.ndarray:
    """Draw Y_ij = +1 with probability sigma_j(<theta*, x_i>), i.i.d. given X.

    An n x m matrix of uniforms is drawn from the ``"labels"`` stream, and
    Y_ij = +1 where u_ij < p_ij. Labelers with equal links form one group:
    the link is evaluated once per group and compared with all of the
    group's columns in one broadcast. The uniforms are drawn and compared
    one row block at a time (``_positive_labels``), so the draw holds the
    labels and one block of uniforms (512 KiB), not the n x m float64
    matrix (164 MB at n = 20000, m = 1024, for 20 MB of labels). The
    result is a C-contiguous int8 n x m matrix of +-1.
    """
    X = _covariates(model, X)
    positive = _positive_labels(model, X, stream_rng(seed, trial, "labels"),
                                group_links(model.links))
    # True/False as int8 1/0, mapped to +1/-1 in place
    Y = positive.view(np.int8)
    Y *= 2
    Y -= 1
    return Y


def sample_label_counts(model: ModelSpec, X: np.ndarray, seed: int,
                        trial: int = 0) -> np.ndarray:
    """Draw each row's count of +1 labels among the model's m labelers, all
    that a pooled fit reads of them (``links.LabelCounts``), as a float64
    n-vector from the ``"labels"`` stream.

    Below ``LABEL_COUNT_CROSSOVER`` labelers it counts the labels that
    ``sample_labels`` draws, from the same n x m uniforms, by one product
    (``links._count_positive``): the counts equal ``(sample_labels(model,
    X, seed, trial) == 1).sum(1)`` exactly. At or above it, the count is
    drawn from its law: one Binomial(M_g, p_g) per link group of M_g
    labelers that are +1 with probability p_g, summed. That costs O(n G)
    for G groups instead of O(n m) and never builds the n x m labels; its
    draws differ from those of the labels.
    """
    X = _covariates(model, X)
    rng = stream_rng(seed, trial, "labels")
    grouping = group_links(model.links)
    if model.m < LABEL_COUNT_CROSSOVER:
        positive = _positive_labels(model, X, rng, grouping)
        return _count_positive(positive, np.zeros(model.m, dtype=np.intp))[0]
    probs, counts = _link_probs(grouping, X @ model.theta_star)
    return sum(rng.binomial(c, p) for p, c in zip(probs, counts)).astype(float)


def sample_dataset(model: ModelSpec, n: int, seed: int, trial: int = 0) -> MultiLabelDataset:
    X = sample_covariates(model.covariates, n, seed, trial)
    Y = sample_labels(model, X, seed, trial)
    return MultiLabelDataset(X=X, Y=Y)


def sample_majority_votes(model: ModelSpec, X: np.ndarray, seed: int,
                          trial: int = 0) -> np.ndarray:
    """Draw each row's tie-broken majority vote of the model's m labelers
    from its exact law, without drawing the labels.

    Each distinct link is evaluated once, and every draw comes from the
    ``"votes"`` stream. When every labeler shares one link with p = P(label
    = +1 | <theta*, x_i>), the vote is +1 with probability I_p(h, h), h =
    ceil(m / 2) (``theory._binom_tail``, the law the theory integrates).
    That is P(B < p) for B ~ Beta(h, h), so one beta draw per row is
    compared with p, at a cost that does not grow with m; at h = 1 (m = 1,
    2) the law is p itself, and one uniform per row is compared with p.
    With G link groups the row's count of +1 votes is drawn as one binomial
    per group, and an exact tie is broken by a fair coin: O(n G), where the
    Poisson-binomial tail would cost O(n m^2). The result is a C-contiguous
    int8 n x 1 column of +-1. It has the law of ``majority_vote_matrix`` of
    ``sample_labels``, not its draws, and never builds the n x m labels.
    """
    X = _covariates(model, X)
    probs, counts = _link_probs(group_links(model.links), X @ model.theta_star)
    rng = stream_rng(seed, trial, "votes")
    if counts.size == 1:
        h = (model.m + 1) // 2
        draws = rng.random(X.shape[0]) if h == 1 else rng.beta(h, h, X.shape[0])
        positive = draws < probs[0]
    else:
        # twice the +1 count minus m
        margin = 2 * sum(rng.binomial(c, p) for p, c in zip(probs, counts)) - model.m
        positive = margin > 0
        tied = margin == 0
        positive[tied] = rng.random(int(tied.sum())) < 0.5
    # True/False as int8 1/0, mapped to +1/-1 in place
    votes = positive.view(np.int8)[:, None]
    votes *= 2
    votes -= 1
    return votes


def majority_vote_matrix(Y: np.ndarray, seed: int, trial: int = 0) -> np.ndarray:
    """Row-wise majority labels of an n x m label matrix as an int8 n x 1
    column of +-1, the format ``sample_majority_votes`` draws; one coin per
    tied row from the ``"tiebreak"`` stream. The majority-vote estimator on
    observed labels fits this column with the pooled loss."""
    sums = np.asarray(Y).sum(axis=1)
    out = np.sign(sums).astype(np.int8)[:, None]
    ties = out == 0
    if np.any(ties):
        rng = stream_rng(seed, trial, "tiebreak")
        out[ties] = np.where(rng.random(int(ties.sum())) < 0.5, 1, -1)
    return out
