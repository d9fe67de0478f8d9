"""Lloyd k-means with k-means++ seeding and restarts.

Used in two places: initializing the Gibbs samplers from a rough data
partition, and clustering pooled component-parameter draws during
relabeling.  Both call sites need determinism under an explicit
Generator, which is why this lives here instead of behind a third-party
interface.
"""

from dataclasses import dataclass

import numpy as np

# Lloyd steps per restart at most; a restart stops earlier once its
# assignments stop changing
MAX_ITER = 100
# independent seedings; the lowest-inertia run wins, ties going to the
# earliest
N_RESTARTS = 10


@dataclass
class KMeansResult:
    centers: np.ndarray      # (k, d)
    labels: np.ndarray       # (n,) indices into 0..k-1
    inertia: float
    n_nonempty: int


def _sq_dist(cols, center):
    """Squared distance of every point to center, from the (d, n) columns.

    Summed one coordinate at a time, in coordinate order, as _assign
    sums its distances.
    """
    out = np.square(cols[0] - center[0])
    for j in range(1, cols.shape[0]):
        out += np.square(cols[j] - center[j])
    return out


def _seed_plus_plus(work, k, rng):
    """k-means++ seeding: spread initial centers with D^2 weighting.

    work is _work_arrays(points, k); D^2 comes from its (d, n) columns.
    The points are the columns, so a center is a column read out whole.
    """
    cols = work[0]
    d, n = cols.shape
    centers = np.empty((k, d))
    centers[0] = cols[:, rng.integers(n)]
    d2 = _sq_dist(cols, centers[0])
    for j in range(1, k):
        total = d2.sum()
        if total > 0:
            probs = d2 / total
            centers[j] = cols[:, rng.choice(n, p=probs)]
        else:
            # all points coincide with chosen centers
            centers[j] = cols[:, rng.integers(n)]
        np.minimum(d2, _sq_dist(cols, centers[j]), out=d2)
    return centers


def _work_arrays(points, k):
    """The (d, n) transposed points and two (k, n) arrays for _assign.

    kmeans builds them once per call; every restart seeds from the
    columns, and every Lloyd step writes into the same two arrays
    instead of allocating and freeing them each time. The sampler's
    steps allocate their own, but here the reuse is measured to pay:
    allocating the two (k, n) arrays in every Lloyd step at n = 4000,
    d = 5, k = 8 (scripts/ab.py sweep-n4000, medians of 10 rounds on a
    2-core VM) took the k-means start from 0.036 to 0.047 s and its
    minor page faults from 144 to 8272, and left the sweeps after it at
    66 faults per sweep instead of 11.5.
    """
    cols = np.ascontiguousarray(points.T)
    d2 = np.empty((k, cols.shape[1]))
    return cols, d2, np.empty_like(d2)


def _assign(work, centers):
    """Nearest center of each point and its squared distance.

    work is _work_arrays(points, k); its two (k, n) arrays are
    overwritten. Every pass runs along n, the long axis. The squared
    distances are summed one coordinate at a time, in coordinate order,
    with no (n, k, d) temporary. For d < 8 that is the order numpy's sum
    over the last axis uses, so the result is bit-identical to summing
    the (n, k, d) squares; from d = 8 numpy pairs the terms, and a
    distance may differ in its last bit (a label only for a point
    equidistant to one ulp). The nearest center is then found one row
    of centers at a time: a center takes a point only when strictly
    closer than every earlier one, so a tie goes to the lowest index, as
    with argmin. The returned arrays are new.
    """
    cols, d2, diff = work
    np.subtract(centers[:, 0, None], cols[0], out=d2)
    np.square(d2, out=d2)
    for j in range(1, cols.shape[0]):
        np.subtract(centers[:, j, None], cols[j], out=diff)
        d2 += np.square(diff, out=diff)
    labels = np.zeros(cols.shape[1], dtype=np.intp)
    best = d2[0].copy()
    for j in range(1, d2.shape[0]):
        labels[d2[j] < best] = j
        np.minimum(best, d2[j], out=best)
    return labels, best


def _lloyd(points, centers, work):
    n, k = points.shape[0], centers.shape[0]
    cols = work[0]
    centers = centers.copy()
    labels = np.full(n, -1)
    for _ in range(MAX_ITER):
        new_labels, d2own = _assign(work, centers)
        # revive empty clusters from the point farthest from its own center,
        # donating only from clusters that keep at least one member
        counts = np.bincount(new_labels, minlength=k)
        revived = False
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
            revived = True
        if np.array_equal(new_labels, labels):
            if not revived:
                # the centers are those this step assigned to, so a
                # last _assign would give the same labels and distances
                return centers, new_labels, float(d2own.sum())
            break
        labels = new_labels
        # every center is its cluster's mean: a bincount per column adds
        # each cluster's points in row order, as a per-cluster mean over
        # axis 0 does, so the centers are the same bits; at d = 1 numpy
        # pair-sums that mean, and a center may differ from it in its
        # last bits
        sums = np.array([np.bincount(labels, weights=col, minlength=k)
                         for col in cols])
        filled = counts > 0
        centers[filled] = sums.T[filled] / counts[filled, None]
    labels, d2own = _assign(work, centers)
    return centers, labels, float(d2own.sum())


def kmeans(points, k, rng):
    """Best-of-N_RESTARTS k-means, each restart at most MAX_ITER Lloyd steps.

    Parameters
    ----------
    points : ndarray, shape (n, d)
    k : int
        Number of clusters; when k > n only n clusters can be nonempty.
    rng : numpy Generator
        Drives seeding; the result is deterministic given its state.

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
    for _ in range(N_RESTARTS):
        seeded = _seed_plus_plus(work, k, rng)
        result = _lloyd(points, seeded, work)
        if best is None or result[2] < best[2]:
            best = result
    centers, labels, inertia = best
    return KMeansResult(centers=centers, labels=labels, inertia=inertia,
                        n_nonempty=int(np.count_nonzero(
                            np.bincount(labels, minlength=k))))
