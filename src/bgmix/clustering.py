"""Lloyd k-means with k-means++ seeding and restarts.

Used in two places: initializing the Gibbs samplers from a rough data
partition, and clustering pooled component-parameter draws during
relabeling.  Both call sites need determinism under an explicit
Generator, which is why this lives here instead of behind a third-party
interface.
"""

from dataclasses import dataclass

import numpy as np


@dataclass
class KMeansResult:
    centers: np.ndarray      # (k, d)
    labels: np.ndarray       # (n,) indices into 0..k-1
    inertia: float
    n_nonempty: int


def _seed_plus_plus(points, k, rng):
    """k-means++ seeding: spread initial centers with D^2 weighting."""
    n = points.shape[0]
    centers = np.empty((k, points.shape[1]))
    centers[0] = points[rng.integers(n)]
    d2 = np.sum((points - centers[0]) ** 2, axis=1)
    for j in range(1, k):
        total = d2.sum()
        if total > 0:
            probs = d2 / total
            centers[j] = points[rng.choice(n, p=probs)]
        else:
            # all points coincide with chosen centers
            centers[j] = points[rng.integers(n)]
        d2 = np.minimum(d2, np.sum((points - centers[j]) ** 2, axis=1))
    return centers


def _work_arrays(points, k):
    """_assign's work: the (d, n) transposed points and two (k, n) arrays.

    kmeans builds them once per call; every restart and Lloyd step then
    writes into the same two arrays instead of allocating and freeing
    them each time.
    """
    cols = np.ascontiguousarray(points.T)
    d2 = np.empty((k, cols.shape[1]))
    return cols, d2, np.empty_like(d2)


def _assign(work, centers):
    """Nearest center of each point and its squared distance.

    work is _work_arrays(points, k); its two (k, n) arrays are
    overwritten. The squared distances are summed one coordinate at a
    time, in coordinate order, with no (n, k, d) temporary; the (k, n)
    layout keeps the long axis innermost. For d < 8 that is the order
    numpy's sum over the last axis uses, so the result is bit-identical
    to summing the (n, k, d) squares; from d = 8 numpy pairs the terms,
    and a distance may differ in its last bit (a label only for a point
    equidistant to one ulp). The returned arrays are new.
    """
    cols, d2, diff = work
    np.subtract(centers[:, 0, None], cols[0], out=d2)
    np.square(d2, out=d2)
    for j in range(1, cols.shape[0]):
        np.subtract(centers[:, j, None], cols[j], out=diff)
        d2 += np.square(diff, out=diff)
    labels = np.argmin(d2, axis=0)
    return labels, d2[labels, np.arange(cols.shape[1])]


def _lloyd(points, centers, max_iter, work):
    (n, d), k = points.shape, centers.shape[0]
    centers = centers.copy()
    labels = np.full(n, -1)
    for _ in range(max_iter):
        new_labels, d2own = _assign(work, centers)
        # revive empty clusters from the point farthest from its own center,
        # donating only from clusters that keep at least one member
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
        # every center is its cluster's mean: one bincount over the cells
        # label * d + column adds each cell's points in row order, as a
        # per-cluster mean over axis 0 does, so the centers are the same
        # bits; at d = 1 numpy pair-sums that mean, and a center may
        # differ from it in its last bits
        sums = np.bincount((labels[:, None] * d + np.arange(d)).ravel(),
                           weights=points.ravel(), minlength=k * d)
        filled = counts > 0
        centers[filled] = sums.reshape(k, d)[filled] / counts[filled, None]
    labels, d2own = _assign(work, centers)
    return centers, labels, float(d2own.sum())


def kmeans(points, k, rng, max_iter=100, n_restarts=10):
    """Best-of-restarts k-means.

    Parameters
    ----------
    points : ndarray, shape (n, d)
    k : int
        Number of clusters; when k > n only n clusters can be nonempty.
    rng : numpy Generator
        Drives seeding; the result is deterministic given its state.
    max_iter : int
        Lloyd iteration cap per restart; convergence is reached earlier
        when assignments stop changing.
    n_restarts : int
        Independent seedings; the minimum-inertia run wins, ties going to
        the earliest restart.

    Returns
    -------
    KMeansResult
    """
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[0] < 1 or points.shape[1] < 1:
        raise ValueError("points must be a nonempty 2-D array")
    if not np.all(np.isfinite(points)):
        raise ValueError("points must be finite")
    if k < 1:
        raise ValueError("k must be at least 1")

    work = _work_arrays(points, k)
    best = None
    for _ in range(n_restarts):
        seeded = _seed_plus_plus(points, k, rng)
        result = _lloyd(points, seeded, max_iter, work)
        if best is None or result[2] < best[2]:
            best = result
    centers, labels, inertia = best
    return KMeansResult(centers=centers, labels=labels, inertia=inertia,
                        n_nonempty=int(np.unique(labels).size))
