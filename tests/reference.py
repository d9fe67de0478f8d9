"""Direct reference versions that tests compare the library's code with.

Each function computes one quantity the direct way: one observation, one
draw or one pair of partitions at a time.
"""

import numpy as np

from bgmix import distributions as dist


def sample_inv_wishart(params, rng):
    """Draw one matrix from W^-1(alpha, V): the inverse of a W(alpha, V) draw."""
    return np.linalg.inv(dist.sample_wishart(params, rng))


def log_mvnormal_density(y, mu, Sigma):
    """Log density of N(mu, Sigma) at y, via the Cholesky factor of Sigma."""
    y = np.asarray(y, dtype=float)
    mu = np.asarray(mu, dtype=float)
    Sigma = np.asarray(Sigma, dtype=float)
    r = y.shape[0]
    L = np.linalg.cholesky(Sigma)
    dev = np.linalg.solve(L, y - mu)
    logdet = 2.0 * np.sum(np.log(np.diag(L)))
    return -0.5 * (r * np.log(2.0 * np.pi) + logdet + dev @ dev)


def variation_of_information(a, b):
    """VI distance between two partitions, natural log."""
    a = np.asarray(a) - np.min(a)
    b = np.asarray(b) - np.min(b)
    nb = int(b.max()) + 1
    cont = np.bincount(a * nb + b, minlength=(int(a.max()) + 1) * nb)
    p = cont.reshape(-1, nb) / a.size

    def ent(q):
        q = q[q > 0]
        return -np.sum(q * np.log(q))

    return 2.0 * ent(p.ravel()) - ent(p.sum(axis=1)) - ent(p.sum(axis=0))


def expected_vi_scores(candidates, weights):
    """Each candidate's weighted VI to every other, one pair at a time."""
    U = len(candidates)
    scores = np.zeros(U)
    for i in range(U):
        for j in range(i + 1, U):
            d = variation_of_information(candidates[i], candidates[j])
            scores[i] += weights[j] * d
            scores[j] += weights[i] * d
    return scores
