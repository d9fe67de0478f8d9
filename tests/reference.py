"""Direct reference versions that tests compare the library's code with.

Each function computes one quantity the direct way: one observation, one
draw, one cluster or one pair of partitions at a time.
"""

import numpy as np
from scipy.special import gammaln

from bgmix import distributions as dist


def sample_wishart(alpha, V, rng):
    """Draw one matrix from W(alpha, V) through the stacked sampler."""
    V = np.asarray(V, dtype=float)
    return dist.sample_wishart_batch(np.array([alpha]), V[None], rng)[0]


def sample_inv_wishart(alpha, V, rng):
    """Draw one matrix from W^-1(alpha, V): the inverse of a W(alpha, V) draw."""
    return np.linalg.inv(sample_wishart(alpha, V, rng))


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


def log_mvnormal_density_einsum(Y, mu, Sigma):
    """(N, K) log densities from (K, N, r) deviations, summed by einsum.

    The stacked form the library used before its passes ran along N:
    z = (y - mu[k]) L_k^-T for every row, and |z|^2 from an einsum over
    the last axis.
    """
    N, r = Y.shape
    L = np.linalg.cholesky(Sigma)
    Linv_T = np.transpose(np.linalg.inv(L), (0, 2, 1))
    z = (Y[None, :, :] - mu[:, None, :]) @ Linv_T
    maha = np.einsum("knr,knr->kn", z, z)
    ii = np.arange(r)
    logdet = 2.0 * np.sum(np.log(L[:, ii, ii]), axis=1)
    return (-0.5 * (maha + (r * np.log(2.0 * np.pi) + logdet)[:, None])).T


def classify_cumsum(logp, u):
    """Assignments from the (N, K) log weights and one uniform per row.

    Row i is normalized, and S_i is the number of cumulative
    probabilities below u_i from a cumsum over the row, capped at K - 1.
    """
    p = logp - logp.max(axis=1)[:, None]
    np.exp(p, out=p)
    p /= p.sum(axis=1, keepdims=True)
    return np.minimum((np.cumsum(p, axis=1) < u[:, None]).sum(axis=1),
                      logp.shape[1] - 1)


def cluster_sums_and_scatter(y, S, mu, K):
    """Per-component sums of y and scatter matrices about mu.

    One bincount over the (N, r) cells S_i * r + j, and one over the
    (N, r * r) cells of every observation's outer product.
    """
    N, r = y.shape
    cell = S[:, None] * r + np.arange(r)
    sums = np.bincount(cell.ravel(), weights=y.ravel(),
                       minlength=K * r).reshape(K, r)
    dev = y - mu[S]
    cell = S[:, None] * (r * r) + np.arange(r * r)
    outer = dev[:, :, None] * dev[:, None, :]
    scatter = np.bincount(cell.ravel(), weights=outer.ravel(),
                          minlength=K * r * r).reshape(K, r, r)
    return sums, scatter


def variation_of_information(a, b):
    """VI distance between two partitions, natural log."""
    # widened: a * nb can leave a narrow label type
    a = np.asarray(a, dtype=np.int64) - np.min(a)
    b = np.asarray(b, dtype=np.int64) - np.min(b)
    nb = int(b.max()) + 1
    cont = np.bincount(a * nb + b, minlength=(int(a.max()) + 1) * nb)
    p = cont.reshape(-1, nb) / a.size

    def ent(q):
        q = q[q > 0]
        return -np.sum(q * np.log(q))

    return 2.0 * ent(p.ravel()) - ent(p.sum(axis=1)) - ent(p.sum(axis=0))


def canonical_rows(S):
    """Each row relabeled by order of first appearance, as int64.

    One np.unique over the T * N keys row * span + label, flat: a row's
    groups take the same places sorted by key or by first occurrence, so
    subtracting the row's first place leaves the rank within it.
    """
    T, N = S.shape
    lo = S.min()
    span = int(S.max() - lo) + 1
    keys = S.astype(np.int64)
    keys += np.arange(T)[:, None] * span - lo
    groups, first = np.unique(keys, return_index=True)
    rank = np.empty_like(first)
    rank[np.argsort(first)] = np.arange(first.size)
    row = groups // span
    table = np.empty(T * span, dtype=np.int64)
    table[groups] = rank - np.searchsorted(row, row)
    return table[keys]


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


def seed_plus_plus(points, k, rng):
    """k-means++ seeding from the (n, d) rows, as bgmix.clustering seeds."""
    n = points.shape[0]
    centers = np.empty((k, points.shape[1]))
    centers[0] = points[rng.integers(n)]
    d2 = np.sum((points - centers[0]) ** 2, axis=1)
    for j in range(1, k):
        total = d2.sum()
        if total > 0:
            centers[j] = points[rng.choice(n, p=d2 / total)]
        else:
            centers[j] = points[rng.integers(n)]
        d2 = np.minimum(d2, np.sum((points - centers[j]) ** 2, axis=1))
    return centers


def assign(points, centers):
    """Nearest center of each point through an (n, k, d) array, and its
    squared distance; ties go to the lowest index (argmin)."""
    d2 = np.sum((points[:, None, :] - centers[None, :, :]) ** 2, axis=2)
    labels = np.argmin(d2, axis=1)
    return labels, d2[np.arange(points.shape[0]), labels]


def lloyd(points, centers, max_iter):
    """Lloyd iterations that update each cluster's center as its own mean.

    Empty clusters are revived as in `bgmix.clustering`; returns the
    centers, the labels and the inertia.
    """
    n, k = points.shape[0], centers.shape[0]
    centers = centers.copy()
    labels = np.full(n, -1)
    for _ in range(max_iter):
        new_labels, d2own = assign(points, centers)
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
    labels, d2own = assign(points, centers)
    return centers, labels, float(d2own.sum())


def kmeans(points, k, rng, max_iter=100, n_restarts=10):
    """Best-of-restarts k-means over `seed_plus_plus` and `lloyd`."""
    points = np.asarray(points, dtype=float)
    best = None
    for _ in range(n_restarts):
        result = lloyd(points, seed_plus_plus(points, k, rng), max_iter)
        if best is None or result[2] < best[2]:
            best = result
    return best
