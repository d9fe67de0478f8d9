"""Direct reference versions that tests compare the library's code with.

Each function computes one quantity the direct way: one observation, one
draw, one cluster or one pair of partitions at a time.
"""

import numpy as np
from scipy.special import gammaln

from bgmix import distributions as dist
from bgmix.clustering import _assign, _seed_plus_plus, _work_arrays


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


def log_partition_given_k(K, N_k, gamma_K):
    """log p(partition | K, gamma_K) for each candidate K, from scipy's gammaln.

    K and gamma_K are arrays of the candidates and their Dirichlet
    parameters, N_k the sizes of the filled clusters:

    p = K!/(K-K+)! * gamma^K+ * Gamma(K gamma)/Gamma(K gamma + N)
        * prod_k Gamma(N_k + gamma)/Gamma(1 + gamma)
    """
    K = np.asarray(K, dtype=float)
    gamma_K = np.asarray(gamma_K, dtype=float)
    N_k = np.asarray(N_k, dtype=float)
    kplus = N_k.size
    N = N_k.sum()
    per_cluster = (gammaln(N_k[None, :] + gamma_K[:, None])
                   - gammaln(1.0 + gamma_K[:, None])).sum(axis=1)
    return (gammaln(K + 1) - gammaln(K - kplus + 1)
            + kplus * np.log(gamma_K)
            + gammaln(K * gamma_K) - gammaln(K * gamma_K + N)
            + per_cluster)


def lloyd(points, centers, max_iter):
    """Lloyd iterations that update each cluster's center as its own mean.

    Empty clusters are revived as in `bgmix.clustering`; returns the
    centers, the labels and the inertia.
    """
    n, k = points.shape[0], centers.shape[0]
    work = _work_arrays(points, k)
    centers = centers.copy()
    labels = np.full(n, -1)
    for _ in range(max_iter):
        new_labels, d2own = _assign(work, centers)
        counts = np.bincount(new_labels, minlength=k)
        for j in np.flatnonzero(counts == 0):
            donors = counts[new_labels] >= 2
            if not np.any(donors):
                break
            far = np.flatnonzero(donors)[np.argmax(d2own[donors])]
            centers[j] = points[far]
            counts[new_labels[far]] -= 1
            counts[j] = 1
            new_labels[far] = j
            d2own[far] = 0.0
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
        for j in np.flatnonzero(counts):
            centers[j] = points[labels == j].mean(axis=0)
    labels, d2own = _assign(work, centers)
    return centers, labels, float(d2own.sum())


def kmeans(points, k, rng, max_iter=100, n_restarts=10):
    """Best-of-restarts k-means over `lloyd`, seeded as bgmix.clustering."""
    points = np.asarray(points, dtype=float)
    best = None
    for _ in range(n_restarts):
        result = lloyd(points, _seed_plus_plus(points, k, rng), max_iter)
        if best is None or result[2] < best[2]:
            best = result
    return best
