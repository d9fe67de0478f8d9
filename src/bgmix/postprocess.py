"""Post-processing of mixture MCMC output.

Turns raw sweeps into an identified model and point partitions:

1. restrict to sweeps with a chosen number of filled clusters,
2. resolve label switching by clustering the pooled component means,
3. summarize the relabeled draws and extract point partitions
   (marginal mode and minimum expected variation of information),
4. score partitions against a reference (adjusted Rand, misclassification).

The VI search counts one contingency table per pair of its U distinct
candidates over the D distinct columns (label profiles) of the candidate
block, D <= N observations: O(U^2 D) work. Draws repeat most
observations' profiles where clusters are well separated: a bench
synth-n4000 chain has D = 217 of N = 4000 at 100 candidates, while the
diabetes chains keep D at 119-141 of 145 and are counted column by
column (_expected_vi).
"""

from dataclasses import dataclass

import numpy as np

from .clustering import kmeans
from .sampler import label_dtype


class EmptySelectionError(ValueError):
    """No sweep matches the requested number of filled clusters."""


class IdentificationError(RuntimeError):
    """Relabeling failed to produce an identified model."""


@dataclass
class Partition:
    """A hard clustering of the observations, labels 1..n_groups."""
    labels: np.ndarray
    n_groups: int


@dataclass
class FilteredDraws:
    k_plus: int
    sweep_indices: np.ndarray
    eta: np.ndarray       # (T, k_plus)
    mu: np.ndarray        # (T, k_plus, r)
    Sigma: np.ndarray     # (T, k_plus, r, r)
    N_k: np.ndarray       # (T, k_plus)
    S: np.ndarray         # (T, N) or None


@dataclass
class IdentifiedDraws:
    k_plus: int
    kept: np.ndarray                  # indices into the filtered sweeps
    non_permutation_rate: float
    eta: np.ndarray
    mu: np.ndarray
    Sigma: np.ndarray
    N_k: np.ndarray
    S: np.ndarray                     # relabeled assignments or None


@dataclass
class PosteriorSummary:
    """Posterior means in identified-label order plus a size-ascending view."""
    mean_eta: np.ndarray
    mean_mu: np.ndarray
    mean_Sigma: np.ndarray
    mean_N_k: np.ndarray
    report_order: np.ndarray


@dataclass
class ConfusionResult:
    table: np.ndarray
    mcr: float
    row_labels: np.ndarray
    col_labels: np.ndarray


def _as_labels(partition):
    if isinstance(partition, Partition):
        return np.asarray(partition.labels)
    return np.asarray(partition)


def _row_blocks(S):
    """Slices of S's rows whose intp copy is no larger than S.

    An index array is converted to intp before numpy reads it, so a
    function that indexes with a block of narrow labels, or with codes
    built from it, needs eight bytes a label for that block alone.
    """
    T = S.shape[0]
    step = max(1, T * S.itemsize // np.dtype(np.intp).itemsize)
    return [slice(lo, lo + step) for lo in range(0, T, step)]


def _relabel(table, S, rows):
    """table[t, S[rows[t], i]] for every t and i, in S's label type.

    Every entry of table that S's rows reach must lie in that type.
    """
    table = table.astype(S.dtype)
    out = np.empty((rows.size, S.shape[1]), dtype=S.dtype)
    for block in _row_blocks(out):
        out[block] = np.take_along_axis(table[block], S[rows[block]], axis=1)
    return out


def kplus_distribution(chain):
    """Relative frequency of the number of filled clusters across records."""
    counts = np.bincount(chain.records.K_plus)
    ks = np.flatnonzero(counts)
    return dict(zip(ks.tolist(), (counts[ks] / counts.sum()).tolist()))


def filter_to_kplus(chain, k_plus):
    """Keep sweeps with exactly k_plus filled components, dropping empty slots.

    Filled components keep their relative order; assignments are remapped
    to the compacted slots when they were stored, in their label type.
    """
    draws = chain.records
    rows = draws.K_plus == k_plus
    keep = np.flatnonzero(rows)
    if keep.size == 0:
        raise EmptySelectionError(f"no sweep has {k_plus} filled clusters")
    filled = draws.N_k.reshape(-1) > 0
    slots = np.repeat(rows, draws.K) & filled     # one flat mask
    S = None
    if draws.S is not None:
        # (T, K) table of each slot's rank among the filled slots of its
        # sweep; a row's slots past its K repeat its last one
        K = draws.K[keep]
        first = np.cumsum(draws.K)[keep] - K
        pos = first[:, None] + np.minimum(np.arange(K.max()), K[:, None] - 1)
        seen = np.cumsum(filled)
        table = seen[pos] - (seen[first] - filled[first] + 1)[:, None]
        S = _relabel(table, draws.S, keep)
    eta, mu, Sigma, N_k = (
        col.reshape(slots.size, -1)[slots].reshape(
            keep.size, k_plus, *col.shape[draws.eta.ndim:])
        for col in (draws.eta, draws.mu, draws.Sigma, draws.N_k))
    return FilteredDraws(k_plus, keep, eta, mu, Sigma, N_k, S)


def ppr_identify(filtered, rng):
    """Resolve label switching by clustering the pooled sweep-level draws.

    The component means mu_k of all sweeps are pooled and clustered into
    k_plus groups by k-means. A sweep whose k_plus draws land in k_plus
    distinct groups defines a relabeling permutation; sweeps that fail
    this are dropped and their fraction is reported as the
    non-permutation rate.

    Parameters
    ----------
    filtered : FilteredDraws
    rng : numpy Generator

    Returns
    -------
    IdentifiedDraws
    """
    T, kp = filtered.mu.shape[0], filtered.k_plus
    pooled = filtered.mu.reshape(T * kp, -1)
    result = kmeans(pooled, kp, rng)
    if result.n_nonempty < kp:
        raise IdentificationError(
            f"pooled draws collapse to {result.n_nonempty} < {kp} groups")
    lab = result.labels.reshape(T, kp)
    # labels lie in 0..kp-1, so a row is a permutation iff it sorts to 0..kp-1
    kept = np.flatnonzero((np.sort(lab, axis=1) == np.arange(kp)).all(axis=1))
    if kept.size == 0:
        raise IdentificationError("no sweep maps to a label permutation")
    rate = 1.0 - kept.size / T

    perms = lab[kept]
    idx = np.arange(kept.size)[:, None]

    def relabel(col):
        out = np.empty_like(col[kept])
        out[idx, perms] = col[kept]
        return out

    S = None
    if filtered.S is not None:
        S = _relabel(perms, filtered.S, kept)
    return IdentifiedDraws(
        k_plus=kp, kept=kept, non_permutation_rate=rate,
        eta=relabel(filtered.eta), mu=relabel(filtered.mu),
        Sigma=relabel(filtered.Sigma), N_k=relabel(filtered.N_k), S=S)


def posterior_summary(identified):
    """Posterior means per identified cluster.

    Arrays are indexed by identified label; report_order lists labels by
    ascending mean cluster size for stable presentation.
    """
    mean_N = identified.N_k.mean(axis=0)
    return PosteriorSummary(
        mean_eta=identified.eta.mean(axis=0),
        mean_mu=identified.mu.mean(axis=0),
        mean_Sigma=identified.Sigma.mean(axis=0),
        mean_N_k=mean_N,
        report_order=np.argsort(mean_N, kind="stable"))


def map_partition(S):
    """Observation-wise modal assignment over relabeled sweeps.

    Ties go to the smallest label. Labels are compacted to 1..n_groups,
    preserving the ascending order of the original labels.
    """
    S = np.asarray(S)
    if S.ndim != 2 or S.shape[0] < 1:
        raise ValueError("need a (T, N) array of assignments")
    kmax = int(S.max()) + 1
    N = S.shape[1]
    # cell i * kmax + S_i, widened: it passes the label type's range
    cells = np.arange(N) * kmax
    counts = np.zeros(N * kmax, dtype=np.intp)
    for block in _row_blocks(S):
        counts += np.bincount(np.add(S[block], cells, dtype=np.intp).ravel(),
                              minlength=N * kmax)
    modal = counts.reshape(N, kmax).argmax(axis=1)
    used = np.flatnonzero(np.bincount(modal, minlength=kmax))
    remap = np.zeros(kmax, dtype=int)
    remap[used] = np.arange(1, used.size + 1)
    return Partition(labels=remap[modal], n_groups=int(used.size))


def coallocation_matrix(S):
    """Mean co-clustering indicator over sweeps; (N, N), unit diagonal."""
    S = np.asarray(S)
    T, N = S.shape
    kmax = int(S.max()) + 1
    C = np.zeros((N, N))
    for lo in range(0, T, 2000):
        block = S[lo:lo + 2000]
        H = (block[:, :, None] == np.arange(kmax)[None, None, :]).astype(float)
        C += np.tensordot(H, H, axes=([0, 2], [0, 2]))
    return C / T


def _canonical_rows(S):
    """Relabel each row by order of first appearance so equal partitions match.

    Over blocks of rows, np.minimum.at finds each label's first column
    in a (rows, span) table, and sorting a row of that table ranks its
    labels; no sort runs over all T * N labels. The ranks come in
    label_dtype(span).
    """
    T, N = S.shape
    lo = int(S.min())
    span = int(S.max()) - lo + 1
    out = np.empty((T, N), dtype=label_dtype(span))
    blocks = _row_blocks(S)
    # one column index per label of a block; np.minimum.at takes values
    # as long as its flat index, since numpy 2.4 misreads values
    # broadcast against a 2-D index
    col = np.tile(np.arange(N), blocks[0].stop - blocks[0].start)
    for block in blocks:
        labels = S[block]
        b = labels.shape[0]
        cell = np.add(labels, np.arange(-lo, b * span - lo, span)[:, None],
                      dtype=np.intp)
        first = np.full(b * span, N)
        np.minimum.at(first, cell.ravel(), col[:b * N])
        # absent labels (first = N) rank last and are never read
        order = np.argsort(first.reshape(b, span), axis=1)
        rank = np.empty((b, span), dtype=out.dtype)
        np.put_along_axis(rank, order, np.arange(span, dtype=out.dtype),
                          axis=1)
        out[block] = rank.ravel()[cell]
    return out


def _distinct_rows(block):
    """First index of each distinct row of a 2-D block, ascending, and
    how many rows equal it.

    Rows are keyed by their bytes in one dict, so equal rows are found
    without sorting the block; the first indices come in order of first
    appearance.
    """
    block = np.ascontiguousarray(block)
    keys = block.view(np.dtype((np.void, block.shape[1] * block.itemsize)))
    first = {}
    return np.unique([first.setdefault(key, i)
                      for i, key in enumerate(keys.ravel().tolist())],
                     return_counts=True)


def _expected_vi(labels, weights):
    """Weighted VI distance from each row of canonical labels to the others.

    Row i meets all rows j > i in one bincount per chunk: cell a_i +
    m_i * (b_j + offset of row j) counts the pair (a_i, b_j), so each
    contingency table is a block of m_i * m_j cells. Rows j are chunked
    so that neither a chunk's codes nor its counts take more bytes than
    labels unless one row or table does. Codes are widened from the
    label type first: m_i * offset leaves it.

    Observations with the same column of labels (the same profile) fall
    in the same cell of every table. When the block has at most n / 2
    distinct columns, D of them, each is counted once, weighted by its
    multiplicity: O(U^2 D) work in place of O(U^2 n). The weighted
    counts are the same integers (sums of integers below 2^53), and the
    chunks are those of the full block, so the scores are the same bits.
    A weighted count over all n columns ran 7-45% slower than the plain
    count on the diabetes chains, hence the n / 2 cut.
    """
    U, n = labels.shape
    p = np.arange(n + 1) / n
    plogp = p * np.log(p, out=np.zeros_like(p), where=p > 0)
    rows = max(1, labels.nbytes // (8 * n))
    cells = max(1, labels.nbytes // 8)
    profiles, mult = _distinct_rows(labels.T)
    if 2 * profiles.size <= n:
        labels = labels[:, profiles]
        # one weight per code of a chunk of at most `rows` rows
        tiled = np.tile(mult.astype(float), rows)

        def count(codes):
            return np.bincount(codes.ravel(),
                               tiled[:codes.size]).astype(np.intp)
    else:
        def count(codes):
            return np.bincount(codes.ravel())

    def entropies(codes, starts):
        return -np.add.reduceat(plogp[count(codes)], starts)

    m = labels.max(axis=1).astype(np.int64) + 1
    start = np.concatenate(([0], np.cumsum(m)))
    wide = np.int32 if start[-1] <= np.iinfo(np.int32).max else np.int64
    offset = start[:-1]
    flat = np.add(labels, offset[:, None], dtype=wide)
    H = np.concatenate([
        entropies(flat[a:a + rows] - start[a], offset[a:a + rows] - start[a])
        for a in range(0, U, rows)])
    scores = np.zeros(U)
    for i in range(U - 1):
        shift = labels[i].astype(np.intp)
        j = i + 1
        while j < U:
            ends = m[i] * (start[j + 1:j + 1 + rows] - start[j])
            stop = j + max(1, int(np.searchsorted(ends, cells, side="right")))
            codes = np.multiply(flat[j:stop], m[i], dtype=np.intp)
            codes += shift - m[i] * start[j]
            joint = entropies(codes, m[i] * (start[j:stop] - start[j]))
            d = 2.0 * joint - H[i] - H[j:stop]
            scores[i] += weights[j:stop] @ d
            scores[j:stop] += weights[i] * d
            j = stop
    return scores


def vi_partition(S, thin_to=2000):
    """Sampled partition minimizing the expected VI distance.

    Sweeps are thinned deterministically (evenly spaced) to at most
    thin_to, duplicate partitions collapse to one candidate weighted by
    multiplicity, and every candidate is scored exactly against the
    weighted set (Wade & Ghahramani 2018), with O(U) numpy calls for U
    candidates and O(U^2 D) counting work, D <= N being the number of
    distinct columns of the candidates (_expected_vi). Ties go to the
    earliest candidate.
    """
    S = np.asarray(S)
    if S.ndim != 2 or S.shape[0] < 2:
        raise ValueError("need at least two sweeps of assignments")
    T = S.shape[0]
    if T > thin_to:
        S = S[np.linspace(0, T - 1, thin_to).astype(int)]
    canon = _canonical_rows(S)
    first, weights = _distinct_rows(canon)
    uniq = canon[first]
    best = uniq[int(np.argmin(_expected_vi(uniq, weights)))].astype(int)
    return Partition(labels=best + 1, n_groups=int(best.max()) + 1)


def ari(a, b):
    """Adjusted Rand index (Hubert-Arabie) between two partitions."""
    a = _as_labels(a)
    b = _as_labels(b)
    if a.shape != b.shape:
        raise ValueError("partitions must cover the same observations")
    ua, ia = np.unique(a, return_inverse=True)
    ub, ib = np.unique(b, return_inverse=True)
    cont = np.bincount(ia * ub.size + ib,
                       minlength=ua.size * ub.size).reshape(ua.size, ub.size)
    n = a.size

    def comb2(x):
        return x * (x - 1) / 2.0

    sum_ij = comb2(cont).sum()
    sum_a = comb2(cont.sum(axis=1)).sum()
    sum_b = comb2(cont.sum(axis=0)).sum()
    expected = sum_a * sum_b / comb2(n)
    max_index = 0.5 * (sum_a + sum_b)
    if max_index == expected:
        return 1.0
    return float((sum_ij - expected) / (max_index - expected))


def confusion_and_mcr(estimated, truth):
    """Confusion table and misclassification rate against reference labels.

    Rows are reference groups, columns estimated groups, both ordered by
    ascending group size (ties by label); the i-th row is matched with
    the i-th column for the error count.
    """
    est = _as_labels(estimated)
    ref = _as_labels(truth)
    if est.shape != ref.shape:
        raise ValueError("label vectors must have equal length")
    ur, ir = np.unique(ref, return_inverse=True)
    ue, ie = np.unique(est, return_inverse=True)
    cont = np.bincount(ir * ue.size + ie,
                       minlength=ur.size * ue.size).reshape(ur.size, ue.size)
    row_order = np.argsort(cont.sum(axis=1), kind="stable")
    col_order = np.argsort(cont.sum(axis=0), kind="stable")
    table = cont[np.ix_(row_order, col_order)]
    matched = np.trace(table[:min(table.shape), :min(table.shape)])
    mcr = 1.0 - matched / est.size
    return ConfusionResult(table=table, mcr=float(mcr),
                           row_labels=ur[row_order], col_labels=ue[col_order])
