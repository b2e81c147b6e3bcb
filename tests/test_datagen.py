import tracemalloc

import numpy as np
import pytest

from labelsim import (
    CovariateKind,
    ModelSpec,
    beta_regular,
    isotropic_gaussian,
    link_eval,
    logistic_link,
    majority_vote_matrix,
    rho_m,
    sample_covariates,
    sample_dataset,
    sample_label_counts,
    sample_labels,
    sample_majority_votes,
    scaled_logistic_link,
    stream_rng,
    tabulated_link,
)
from labelsim.datagen import LABEL_COUNT_CROSSOVER
from labelsim.links import COUNT_BLOCK


def _model(d=3, t_star=1.0, m=2):
    lr = logistic_link()
    theta = np.zeros(d)
    theta[0] = t_star
    return ModelSpec(theta_star=theta, links=(lr,) * m,
                     covariates=isotropic_gaussian(d))


def test_stream_rng_is_deterministic_and_stream_separated():
    a = stream_rng(1, 2, "labels").random(5)
    b = stream_rng(1, 2, "labels").random(5)
    c = stream_rng(1, 2, "covariates").random(5)
    d = stream_rng(1, 3, "labels").random(5)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def test_sample_covariates_gaussian_moments():
    dist = isotropic_gaussian(4)
    X = sample_covariates(dist, 200_000, seed=0)
    assert X.shape == (200_000, 4)
    assert np.max(np.abs(X.mean(axis=0))) < 0.02
    cov = X.T @ X / X.shape[0]
    assert np.max(np.abs(cov - np.eye(4))) < 0.02


def test_sample_covariates_beta_regular_structure():
    u = np.array([1.0, 0.0, 0.0])
    dist = beta_regular(3, 2.0, u)
    X = sample_covariates(dist, 200_000, seed=1)
    z = X @ u
    w = X - np.outer(z, u)
    # margin matches sign * Gamma(2,1): mean 0, E[Z^2] = 6
    assert abs(z.mean()) < 0.03
    assert np.mean(z ** 2) == pytest.approx(6.0, rel=0.03)
    # orthogonal block is standard normal, independent of the margin sign
    assert np.max(np.abs(w @ u)) < 1e-12
    assert np.mean(w[:, 1] ** 2) == pytest.approx(1.0, rel=0.03)
    with pytest.raises(ValueError):
        sample_covariates(dist, 0, seed=0)


def test_sample_labels_match_link_probabilities():
    model = ModelSpec(theta_star=np.array([2.0, 0.0]),
                      links=(logistic_link(), scaled_logistic_link(3.0)),
                      covariates=isotropic_gaussian(2))
    X = np.tile(np.array([[0.7, -0.3]]), (200_000, 1))
    Y = sample_labels(model, X, seed=5)
    margin = 2.0 * 0.7
    for j, link in enumerate(model.links):
        p_hat = np.mean(Y[:, j] == 1)
        assert p_hat == pytest.approx(link_eval(link, margin), abs=0.005)
    assert set(np.unique(Y)) <= {-1, 1}


def test_sample_dataset_deterministic_per_trial():
    model = _model()
    a = sample_dataset(model, 100, seed=3, trial=0)
    b = sample_dataset(model, 100, seed=3, trial=0)
    c = sample_dataset(model, 100, seed=3, trial=1)
    assert np.array_equal(a.X, b.X) and np.array_equal(a.Y, b.Y)
    assert not np.array_equal(a.X, c.X)


def test_sample_labels_equal_links_match_per_labeler_evaluation():
    # labelers with equal links (tabulated ones compared by value) share one
    # link evaluation; the labels must equal evaluating every labeler alone
    grid = np.linspace(-3.0, 3.0, 13)
    base = (logistic_link(), scaled_logistic_link(3.0),
            tabulated_link(grid, 0.5 + 0.5 * np.tanh(grid)),
            tabulated_link(grid.copy(), 0.5 + 0.5 * np.tanh(grid)))
    links = tuple(base[j % len(base)] for j in range(64))
    model = ModelSpec(theta_star=np.array([2.0, 0.0, 0.0]), links=links,
                      covariates=isotropic_gaussian(3))
    X = sample_covariates(model.covariates, 5000, seed=4)
    Y = sample_labels(model, X, seed=4, trial=2)
    uniforms = stream_rng(4, 2, "labels").random((5000, 64))
    margins = X @ model.theta_star
    ref = np.empty_like(Y)
    for j, link in enumerate(links):
        ref[:, j] = np.where(uniforms[:, j] < link_eval(link, margins), 1, -1)
    assert Y.dtype == np.int8 and Y.flags.c_contiguous
    assert Y.tobytes() == ref.tobytes()


@pytest.mark.parametrize("links", [
    (logistic_link(),),
    (logistic_link(),) * 64,
    tuple(scaled_logistic_link(a) for a in (0.5, 1.0, 2.0)),
], ids=["one link m=1", "one link m=64", "three distinct links"])
def test_sample_labels_match_per_column_reference(links):
    # one link group compares the whole uniform matrix in one broadcast,
    # distinct links one column each; either way the labels must equal a
    # per-column comparison with the same uniforms
    model = ModelSpec(theta_star=np.array([2.0, 0.0, 0.0]), links=links,
                      covariates=isotropic_gaussian(3))
    X = sample_covariates(model.covariates, 5000, seed=4)
    Y = sample_labels(model, X, seed=4, trial=2)
    uniforms = stream_rng(4, 2, "labels").random((5000, len(links)))
    margins = X @ model.theta_star
    ref = np.empty((5000, len(links)), dtype=np.int8)
    for j, link in enumerate(links):
        ref[:, j] = np.where(uniforms[:, j] < link_eval(link, margins), 1, -1)
    assert Y.dtype == np.int8 and Y.flags.c_contiguous
    assert Y.tobytes() == ref.tobytes()


def test_majority_vote_no_tie():
    out = majority_vote_matrix(np.array([[1, 1, -1], [-1, -1, 1]]), seed=0)
    assert out.tolist() == [[1], [-1]]
    assert out.dtype == np.int8 and out.flags.c_contiguous


def test_majority_vote_tie_is_seeded_fair_coin():
    tie = np.array([[1, -1]])
    votes = [int(majority_vote_matrix(tie, seed=s)[0, 0]) for s in range(2000)]
    assert np.array_equal(majority_vote_matrix(tie, seed=7),
                          majority_vote_matrix(tie, seed=7))
    frac = np.mean(np.array(votes) == 1)
    assert 0.45 < frac < 0.55


def test_majority_vote_matrix_matches_rowwise():
    rng = np.random.default_rng(9)
    Y = rng.choice([-1, 1], size=(500, 4)).astype(np.int8)
    out = majority_vote_matrix(Y, seed=11)
    assert out.shape == (500, 1)
    sums = Y.sum(axis=1)
    assert np.all(out[sums > 0] == 1)
    assert np.all(out[sums < 0] == -1)
    assert set(np.unique(out)) <= {-1, 1}
    # deterministic under the same seed
    assert np.array_equal(out, majority_vote_matrix(Y, seed=11))


@pytest.mark.parametrize("links", [(logistic_link(),) * m for m in (1, 2, 4, 16, 64)]
                         + [(scaled_logistic_link(0.2), scaled_logistic_link(10.0)) * h
                            for h in (2, 8)]
                         + [(scaled_logistic_link(0.2), scaled_logistic_link(10.0),
                             scaled_logistic_link(0.2))],
                         ids=[f"logistic m={m}" for m in (1, 2, 4, 16, 64)]
                         + [f"slope 0.2/10 m={m}" for m in (4, 16, 3)])
def test_majority_votes_match_vote_law(links):
    # at each fixed margin t the vote agrees with sign(t) at the rate rho_m;
    # 4.5 standard errors keep this seeded check from failing by chance
    margins = np.repeat([-0.6, 0.15, 0.8], 100_000)
    model = ModelSpec(theta_star=np.array([1.0, 0.0]), links=links,
                      covariates=isotropic_gaussian(2))
    X = np.column_stack([margins, np.zeros_like(margins)])
    votes = sample_majority_votes(model, X, seed=6, trial=1)
    for t in np.unique(margins):
        agree = np.mean(votes[margins == t, 0] == np.sign(t))
        rate = rho_m(t, len(links), links)
        se = np.sqrt(rate * (1.0 - rate) / 100_000)
        assert abs(agree - rate) <= 4.5 * se, (t, agree, rate)


def test_majority_votes_are_seeded_and_drawn_from_the_votes_stream():
    model = _model(d=3, t_star=2.0, m=4)
    X = sample_covariates(model.covariates, 5000, seed=4)
    votes = sample_majority_votes(model, X, seed=4, trial=2)
    assert votes.shape == (5000, 1) and votes.dtype == np.int8
    assert votes.flags.c_contiguous
    assert votes.tobytes() == sample_majority_votes(model, X, seed=4, trial=2).tobytes()
    assert votes.tobytes() != sample_majority_votes(model, X, seed=4, trial=3).tobytes()
    # one Beta(h, h) draw per row (h = 2) from the "votes" stream against
    # p, as P(B < p) = I_p(h, h) = P(vote = +1); the draw reads neither the
    # "labels" nor the "tiebreak" stream
    p = link_eval(logistic_link(), X @ model.theta_star)
    ref = np.where(stream_rng(4, 2, "votes").beta(2, 2, 5000) < p, 1, -1)
    assert votes[:, 0].tolist() == ref.tolist()
    # mixed links: one binomial count per link group, then a coin per tie
    mixed = ModelSpec(theta_star=model.theta_star, covariates=model.covariates,
                      links=(scaled_logistic_link(0.2), scaled_logistic_link(10.0)) * 2)
    votes = sample_majority_votes(mixed, X, seed=4, trial=2)
    assert votes.shape == (5000, 1) and votes.dtype == np.int8
    assert votes.flags.c_contiguous
    assert votes.tobytes() == sample_majority_votes(mixed, X, seed=4, trial=2).tobytes()
    rng = stream_rng(4, 2, "votes")
    s = X @ model.theta_star
    margin = (2 * (rng.binomial(2, link_eval(scaled_logistic_link(0.2), s))
                   + rng.binomial(2, link_eval(scaled_logistic_link(10.0), s))) - 4)
    tied = margin == 0
    assert 0 < tied.sum() < 5000
    margin[tied] = np.where(rng.random(int(tied.sum())) < 0.5, 1, -1)
    assert votes[:, 0].tolist() == np.sign(margin).tolist()


@pytest.mark.parametrize("dist", [isotropic_gaussian(4),
                                  beta_regular(3, 0.5, np.array([1.0, 2.0, -2.0]))],
                         ids=["gaussian", "beta-regular"])
def test_sample_covariates_are_column_major_stream_draws(dist):
    # column-major X holds the row-major stream draws, bit for bit
    X = sample_covariates(dist, 5000, seed=3, trial=4)
    assert X.flags.f_contiguous and not X.flags.c_contiguous
    rng = stream_rng(3, 4, "covariates")
    if dist.d == 4:
        ref = rng.standard_normal((5000, 4))
    else:
        u = dist.direction
        z = rng.gamma(dist.beta, 1.0, size=5000) * rng.choice([-1.0, 1.0], size=5000)
        w = rng.standard_normal((5000, 3))
        w -= np.outer(w @ u, u)
        ref = np.outer(z, u) + w
    assert ref.flags.c_contiguous and np.array_equal(X, ref)


@pytest.mark.parametrize("links", [(logistic_link(),) * m for m in (1, 4, LABEL_COUNT_CROSSOVER - 1)]
                         + [(scaled_logistic_link(0.2), scaled_logistic_link(10.0)) * 3],
                         ids=["logistic m=1", "logistic m=4", "logistic below crossover",
                              "slope 0.2/10 m=6"])
def test_label_counts_below_crossover_count_sample_labels(links):
    model = ModelSpec(theta_star=np.array([1.5, -0.5, 0.0]), links=links,
                      covariates=isotropic_gaussian(3))
    X = sample_covariates(model.covariates, 4000, seed=9)
    counts = sample_label_counts(model, X, seed=9, trial=2)
    assert counts.dtype == np.float64 and counts.shape == (4000,)
    want = (sample_labels(model, X, seed=9, trial=2) == 1).sum(axis=1)
    assert np.array_equal(counts, want)


@pytest.mark.parametrize("links", [(logistic_link(),) * LABEL_COUNT_CROSSOVER,
                                   (logistic_link(),) * 1024,
                                   (scaled_logistic_link(0.2), scaled_logistic_link(10.0)) * 24],
                         ids=["logistic at crossover", "logistic m=1024", "slope 0.2/10 m=48"])
def test_label_counts_match_binomial_law(links):
    # at or above the crossover each count is drawn from its law, a sum of
    # one Binomial(M_g, p_g) per link group; at each fixed margin its mean
    # and variance are checked within 4.5 standard errors of their own
    # estimates, so this seeded check does not fail by chance
    N = 100_000
    margins = np.repeat([-0.6, 0.15, 0.8], N)
    model = ModelSpec(theta_star=np.array([1.0, 0.0]), links=links,
                      covariates=isotropic_gaussian(2))
    X = np.column_stack([margins, np.zeros_like(margins)])
    counts = sample_label_counts(model, X, seed=6, trial=1)
    assert counts.dtype == np.float64
    assert np.array_equal(counts, np.trunc(counts))
    assert counts.min() >= 0 and counts.max() <= len(links)
    for t in np.unique(margins):
        k = counts[margins == t]
        groups = [(links.count(link), link_eval(link, t)) for link in dict.fromkeys(links)]
        mean = sum(M * p for M, p in groups)
        var = sum(M * p * (1 - p) for M, p in groups)
        # fourth central moment of a sum of independent binomials: its
        # fourth cumulant M p q (1 - 6 p q) per group plus 3 var^2
        mu4 = sum(M * p * (1 - p) * (1 - 6 * p * (1 - p)) for M, p in groups) + 3 * var ** 2
        assert abs(k.mean() - mean) <= 4.5 * np.sqrt(var / N), (t, k.mean(), mean)
        assert abs(k.var() - var) <= 4.5 * np.sqrt((mu4 - var ** 2) / N), (t, k.var(), var)
    # one binomial per link group from the "labels" stream
    if len(set(links)) == 1:
        ref = stream_rng(6, 1, "labels").binomial(len(links), link_eval(links[0], margins))
        assert np.array_equal(counts, ref)


@pytest.mark.parametrize("dist", [isotropic_gaussian(4),
                                  beta_regular(3, 0.5, np.array([1.0, 2.0, -2.0]))],
                         ids=["gaussian", "beta-regular"])
def test_covariates_equal_one_shot_draw(dist):
    # Gaussian rows are drawn in blocks of COUNT_BLOCK numbers; over
    # several blocks and a partial last one they are the one-shot draw
    n = 3 * (COUNT_BLOCK // dist.d) + 11
    X = sample_covariates(dist, n, seed=5, trial=1)
    assert X.flags.f_contiguous
    rng = stream_rng(5, 1, "covariates")
    if dist.kind is CovariateKind.ISOTROPIC_GAUSSIAN:
        ref = rng.standard_normal((n, dist.d))
    else:  # gammas, then signs, then normals, each whole
        u = dist.direction
        z = rng.gamma(dist.beta, 1.0, size=n) * rng.choice([-1.0, 1.0], size=n)
        w = rng.standard_normal((n, dist.d))
        w -= np.outer(w @ u, u)
        ref = np.outer(z, u) + w
    assert np.ascontiguousarray(X).tobytes() == ref.tobytes()


_BLOCKED_LINKS = {"one group": (logistic_link(),) * 7,
                  "three groups": (scaled_logistic_link(0.5), logistic_link(),
                                   scaled_logistic_link(2.0)) * 2 + (logistic_link(),)}


@pytest.mark.parametrize("links", list(_BLOCKED_LINKS.values()), ids=list(_BLOCKED_LINKS))
def test_labels_and_counts_equal_one_shot_draw(links):
    # the uniforms are drawn in row blocks of COUNT_BLOCK numbers; labels
    # and (below the crossover) counts are those of one n x m draw
    m = len(links)
    assert m < LABEL_COUNT_CROSSOVER
    n = 2 * (COUNT_BLOCK // m) + 13
    model = ModelSpec(theta_star=np.array([1.5, -0.5, 0.25]), links=links,
                      covariates=isotropic_gaussian(3))
    X = sample_covariates(model.covariates, n, seed=8)
    s = X @ model.theta_star
    uniforms = stream_rng(8, 3, "labels").random((n, m))
    probs = np.column_stack([link_eval(link, s) for link in links])
    want = np.where(uniforms < probs, 1, -1).astype(np.int8)
    Y = sample_labels(model, X, seed=8, trial=3)
    assert Y.flags.c_contiguous and Y.tobytes() == want.tobytes()
    counts = sample_label_counts(model, X, seed=8, trial=3)
    assert counts.tobytes() == (want == 1).sum(axis=1).astype(float).tobytes()


def test_sample_labels_holds_one_block_of_uniforms():
    # the peak allocation of a label draw stays under twice its labels'
    # bytes: the n x m float64 uniforms (16 MB here) are never built
    n, m = 4000, 512
    model = _model(m=m)
    X = sample_covariates(model.covariates, n, seed=2)
    tracemalloc.start()
    try:
        Y = sample_labels(model, X, seed=2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert Y.nbytes == n * m
    assert peak < 2 * Y.nbytes, peak
