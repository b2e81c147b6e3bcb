"""Seeded sampling of covariates, per-labeler labels and majority votes.

Every sampling routine derives an independent RNG stream from
(seed, trial, purpose), so parallel trial generation stays reproducible.
"""

from __future__ import annotations

import zlib

import numpy as np

from .links import (
    CovariateDistribution,
    CovariateKind,
    ModelSpec,
    MultiLabelDataset,
    group_links,
    link_eval,
)
from .theory import _link_probs

__all__ = [
    "stream_rng",
    "sample_covariates",
    "sample_labels",
    "sample_dataset",
    "sample_majority_votes",
    "majority_vote_matrix",
]


def stream_rng(seed: int, trial: int = 0, purpose: str = "") -> np.random.Generator:
    """RNG for one (trial, purpose) stream under a master seed."""
    tag = zlib.crc32(purpose.encode()) & 0xFFFFFFFF
    return np.random.default_rng(np.random.SeedSequence([int(seed), int(trial), tag]))


def sample_covariates(dist: CovariateDistribution, n: int, seed: int, trial: int = 0) -> np.ndarray:
    """Draw n i.i.d. covariate rows; deterministic given (seed, trial)."""
    if n < 1:
        raise ValueError("need n >= 1")
    rng = stream_rng(seed, trial, "covariates")
    if dist.kind is CovariateKind.ISOTROPIC_GAUSSIAN:
        return rng.standard_normal((n, dist.d))
    u = dist.direction
    z = rng.gamma(dist.beta, 1.0, size=n) * rng.choice([-1.0, 1.0], size=n)
    w = rng.standard_normal((n, dist.d))
    w -= np.outer(w @ u, u)
    return np.outer(z, u) + w


def sample_labels(model: ModelSpec, X: np.ndarray, seed: int, trial: int = 0) -> np.ndarray:
    """Draw Y_ij = +1 with probability sigma_j(<theta*, x_i>), i.i.d. given X.

    One n x m matrix of uniforms is drawn, and Y_ij = +1 where u_ij < p_ij.
    Labelers with equal links form one group: the link is evaluated once
    per group and compared with all of the group's columns in one
    broadcast (the whole matrix when every labeler shares one link). The
    result is a C-contiguous int8 n x m matrix of +-1.
    """
    X = np.asarray(X, dtype=float)
    if X.shape[1] != model.d:
        raise ValueError("covariate dimension mismatch")
    rng = stream_rng(seed, trial, "labels")
    margins = X @ model.theta_star
    n, m = X.shape[0], model.m
    uniforms = rng.random((n, m))
    distinct, index = group_links(model.links)
    if len(distinct) == 1:
        positive = uniforms < link_eval(distinct[0], margins)[:, None]
    else:
        positive = np.empty((n, m), dtype=bool)
        for g, link in enumerate(distinct):
            cols = np.flatnonzero(index == g)
            positive[:, cols] = uniforms[:, cols] < link_eval(link, margins)[:, None]
    # True/False as int8 1/0, mapped to +1/-1 in place
    Y = positive.view(np.int8)
    Y *= 2
    Y -= 1
    return Y


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
    X = np.asarray(X, dtype=float)
    if X.shape[1] != model.d:
        raise ValueError("covariate dimension mismatch")
    probs, counts = _link_probs(model.links, X @ model.theta_star)
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
