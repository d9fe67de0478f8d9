"""Gibbs samplers for the Gaussian mixture model.

One sweep (sweep) serves both K priors; the type of the prior's k_prior
picks the moves it adds:

* ``FixedK``: none. With a generous K and a small FixedGamma this is the
  sparse finite mixture (sfm): superfluous components empty out.
* ``RandomK``: the telescoping moves: K is sampled each sweep given the
  partition, after C0, and the empty components are drawn from C0 anew.

All updates are written against stacked arrays so a sweep costs a fixed
number of numpy calls regardless of N; only step_classify's grows with K,
by one row addition per component. A sweep evaluates the (N, K)
matrix of log-weighted component densities once: built at the end of a
sweep, it feeds the next sweep's classification, which sees the same
state. Classify already takes each observation's maximum and normalizer
of that matrix, and from them it returns the mixture log-likelihood of
the state it classified against: the previous sweep's trace row. The
last sweep's row is the one extra model.mixture_log_likelihood call.

The state carries each covariance as the precision factor R_k its
Wishart draw yields (MixtureState): the component update and the C0
update take Sigma_k^-1 = R_k R_k^T by one matmul, the density factors
nothing, and Sigma is formed only for the stored sweeps, after the
loop. Functions of the prior alone are computed once: a RandomK prior
holds its log prior of K over 1..k_max from construction, as
PriorConfig holds B0^-1, B0^-1 b0 and B0's Cholesky factor. The K
update's terms that depend on K, gamma_K and N alone are built once per
chain, into read-only tables over K = 1..k_max; the only data-dependent
terms, the rows log Gamma(n + gamma_K) over the same range for a cluster
of size n, are kept in a bounded cache of that chain's tables.

Every pass over the N observations keeps N as the innermost axis, so
numpy runs a few long loops instead of millions of r- or K-element ones:
the density works on (K, r, N) deviations, step_component_params on the
(r, N) columns of y and the (P, N) products of their P = r(r+1)/2
coordinate pairs, and step_classify on the (K, N) transpose of the
density matrix, one row of K at a time. Every step gives the same bits
as with the (N, r) and (N, K) layouts except the density, whose sum
over r adds its terms in another order (see
distributions.log_mvnormal_density_batch): its values, and with them
the trace log-likelihood, may move in their last bits, and a draw only
where a uniform falls that close to a boundary.

Each step allocates its own work arrays, and no array a step writes
outlives it unless it is returned or stored in the state, like the
(N, K) density matrix carried to the next classify. The (N, K) steps
(the density's constant terms, the weights, classify's probabilities,
the trace log-likelihood's sorted terms) and k-means' distances work in
place, so fewer temporaries are alive at once.

Log-gamma comes from the standard library (distributions.log_gamma over
math.lgamma), so no sweep loads scipy.

run_chain writes each stored sweep's K component slots into the Draws
columns after the previous sweep's, the factors R_k into the Sigma
column; after the loop that column is turned into Sigma_k in place, a
bounded block of slots at a time, so it takes no second copy. The
columns start with room for T * k_init slots and double when a sweep
does not fit, so fixed K never copies them.
The stored assignments take the narrowest label type that holds the
most components a sweep can have (label_dtype): one byte a label up to
K = 127, where int64 took eight.
"""

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import distributions as dist
from .clustering import kmeans
from .model import (MixtureState, RandomK, log_weighted_densities,
                    mixture_log_likelihood, sample_components)

# slots per block when run_chain turns the stored factors into Sigma, so
# the conversion's temporaries stay small whatever the chain's length
_SIGMA_BLOCK = 256


class NumericalError(RuntimeError):
    """A conditional update lost all probability mass to underflow."""


class SamplerError(RuntimeError):
    """A sweep failed; the message carries the iteration index."""


@dataclass
class Draws:
    """Stored sweeps as columns, one row per sweep.

    The component columns hold row t's K[t] slots after row t-1's, C =
    sum(K) in all; row t's end at np.cumsum(K)[t]. With one K in every
    row they are seen as (T, K, ...), so readers of either take
    col.reshape(-1, ...). S holds the 0-based labels in
    label_dtype(k) for the most components k a row can have (int8 up
    to k = 127); a reader widens it before arithmetic that can leave
    that range. S is None when assignments are not stored.
    """
    iter: np.ndarray       # (T,)
    K: np.ndarray          # (T,)
    K_plus: np.ndarray     # (T,)
    eta: np.ndarray        # (C,), or (T, K) when K is constant
    mu: np.ndarray         # (C, r), or (T, K, r)
    Sigma: np.ndarray      # (C, r, r), or (T, K, r, r); exactly symmetric
    N_k: np.ndarray        # (C,), or (T, K)
    S: np.ndarray          # (T, N) in a label_dtype, or None

    def __post_init__(self):
        if self.eta.ndim == 1 and np.all(self.K == self.K[0]):
            rows = (self.K.size, int(self.K[0]))
            self.eta, self.mu, self.Sigma, self.N_k = (
                col.reshape(rows + col.shape[1:])
                for col in (self.eta, self.mu, self.Sigma, self.N_k))

    def __len__(self):
        return self.iter.size


def label_dtype(k):
    """The narrowest signed integer type that holds 0..k.

    With k the most components a table's rows can have, it holds their
    labels 0..k-1 and the 1..k of an assignments file.
    """
    for t in (np.int8, np.int16, np.int32):
        if k <= np.iinfo(t).max:
            return np.dtype(t)
    return np.dtype(np.int64)


def grow(columns, end):
    """columns, or copies at least twice as long when end slots do not fit."""
    if end <= len(columns[0]):
        return columns
    size = max(end, 2 * len(columns[0]))
    return [np.resize(col, (size,) + col.shape[1:]) for col in columns]


@dataclass
class ChainOutput:
    records: Draws
    trace: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# initialization


def init_from_kmeans(data, prior, K, rng):
    """Rough-partition start: k-means labels, cluster means, Sigma_k = phi*S.

    k-means runs on column-standardized data so no single scale dominates
    the starting partition; all state built from it uses the raw data.
    """
    if K < 1:
        raise ValueError("K must be at least 1")
    sd = np.std(data.y, axis=0, ddof=1)
    sd[sd == 0] = 1.0
    result = kmeans((data.y - data.y.mean(axis=0)) / sd, K, rng)
    S = result.labels.copy()
    mu = np.empty((K, data.r))
    grand = data.y.mean(axis=0)
    for k in range(K):
        members = S == k
        mu[k] = data.y[members].mean(axis=0) if np.any(members) else grand
    Svar = np.diag(np.atleast_1d(np.var(data.y, axis=0, ddof=1)))
    Sigma = np.broadcast_to(prior.phi * Svar, (K, data.r, data.r)).copy()
    eta = np.full(K, 1.0 / K)
    return MixtureState(K=K, eta=eta, mu=mu, Sigma=Sigma,
                        C0=prior.C0_init.copy(), S=S)


# ---------------------------------------------------------------------------
# conditional updates


def step_classify(data, state, rng, logp=None):
    """Redraw every assignment S_i from its conditional given the parameters.

    logp is log_weighted_densities(data, state) when the caller already
    holds it; it is computed here otherwise. Returns the mixture
    log-likelihood of the state as it came in, sum_i log sum_k
    exp(logp[i, k]), from each observation's maximum and normalizer; it
    equals mixture_log_likelihood's to rounding, but adds the terms in
    another order, so it is not bit-invariant under relabeling.

    The work runs along N, on the (K, N) view logp.T: the normalizer is
    a sum over its rows, the cumulative probabilities are built in place
    one row addition at a time, and S_i counts the first K - 1 of them
    below the uniform u_i. That is the index of the first one at or
    above u_i, capped at K - 1 where rounding leaves the total below
    u_i, and the same to the bit as a cumsum over each row of logp.
    """
    if logp is None:
        logp = log_weighted_densities(data, state)
    lt = logp.T
    colmax = lt.max(axis=0)
    dead = colmax == -np.inf
    if dead.any():
        i = int(np.flatnonzero(dead)[0])
        raise NumericalError(f"all component densities underflowed for "
                             f"observation {i}")
    p = np.subtract(lt, colmax, order="C")
    np.exp(p, out=p)
    norm = p.sum(axis=0)
    p /= norm
    for k in range(1, state.K - 1):
        p[k] += p[k - 1]
    u = rng.random(data.n)
    state.S = (p[:-1] < u).sum(axis=0)
    state.refresh_counts()
    return float(np.log(norm, out=norm).sum() + colmax.sum())


def step_weights(state, gamma_K, rng):
    """Redraw eta ~ Dirichlet(gamma_K + N_1, ..., gamma_K + N_K), empty slots included."""
    state.eta = dist.sample_dirichlet(gamma_K + state.N_k, rng)
    return state


@lru_cache(maxsize=128)
def _pair_layout(r, K):
    """Index tables of step_component_params for r coordinates, K slots.

    Returns (offsets, blocks, sum_cells, scatter_cells). Row p of the
    (P, N) pair products, P = r(r+1)/2, holds coordinate i times
    coordinate j for the p-th pair (i, j) of the lower triangle in row
    order, so row i's pairs j = 0..i fill the rows blocks[i].
    offsets[p] = K * p turns a slot index into its bincount cell of row
    p; the first r rows serve the per-coordinate sums too. sum_cells
    (K, r) and scatter_cells (K, r, r) gather the two bincounts into
    per-slot order, the pair (i, j) and (j, i) from one cell. One
    chain's constants: cached per (r, K) and shared by every caller, so
    the arrays are read-only.
    """
    il, jl = np.tril_indices(r)
    sym = np.empty((r, r), dtype=np.intp)
    sym[il, jl] = sym[jl, il] = np.arange(il.size)
    k = np.arange(K)
    offsets = (K * np.arange(il.size))[:, None]
    sum_cells = K * np.arange(r) + k[:, None]
    scatter_cells = K * sym + k[:, None, None]
    for table in (offsets, sum_cells, scatter_cells):
        table.flags.writeable = False
    blocks = tuple(slice(i * (i + 1) // 2, (i + 1) * (i + 2) // 2)
                   for i in range(r))
    return offsets, blocks, sum_cells, scatter_cells


def step_component_params(data, state, prior, rng):
    """Redraw (mu_k, Sigma_k) for every component slot in the state.

    Empty slots reduce to prior-conditional draws: mu_k ~ N(b0, B0) and
    Sigma_k ~ W^-1(c0, C0), since the posterior factors collapse at
    N_k = 0. The mean update takes Sigma_k^-1 = R_k R_k^T from the
    state's factors, and the new factors are the Wishart draw's own
    (distributions.sample_wishart_factor_batch), never inverted.

    The per-observation work runs along N. devT holds the (r, N)
    columns of y, then the deviations y_i - mu_{S_i}; prod holds the
    (P, N) products of their P = r(r+1)/2 lower-triangle coordinate
    pairs, and codes the bincount cell S_i + K * p of each entry of
    row p. bincount adds each cell's weights in index order, as
    np.add.at does, and a product does not depend on the order of its
    factors, so the sums and the symmetric scatter matrices are the
    same to the bit as adding up each observation's (r,) row and
    (r, r) outer product.
    """
    K, r, N = state.K, data.r, data.n
    Nk = state.N_k.astype(float)
    Sig_inv = state.R @ state.R.swapaxes(1, 2)
    Bk = np.linalg.inv(prior.B0_inv[None, :, :] + Nk[:, None, None] * Sig_inv)
    Bk = 0.5 * (Bk + Bk.swapaxes(1, 2))
    offsets, blocks, sum_cells, scatter_cells = _pair_layout(r, K)
    P = offsets.shape[0]
    codes = np.add(state.S, offsets, dtype=np.intp)
    devT = data.y.T.copy()
    # a new C-ordered (K, r) array: the einsum below gives other bits on
    # a strided view
    sums = np.bincount(codes[:r].ravel(), weights=devT.ravel(),
                       minlength=r * K).take(sum_cells)
    rhs = prior.B0_inv_b0[None, :] + np.einsum("kij,kj->ki", Sig_inv, sums)
    bk = np.einsum("kij,kj->ki", Bk, rhs)
    state.mu = dist.sample_mvnormal_batch(bk, Bk, rng)

    prod = np.empty((P, N))
    # S is in range; mode="wrap" only spares take a buffered copy
    devT -= np.take(state.mu.T, state.S, axis=1, out=prod[:r], mode="wrap")
    for i, block in enumerate(blocks):
        np.multiply(devT[i], devT[:i + 1], out=prod[block])
    scatter = np.bincount(codes.ravel(), weights=prod.ravel(),
                          minlength=P * K).take(scatter_cells)
    Ck = state.C0[None, :, :] + 0.5 * scatter
    state.R = dist.sample_wishart_factor_batch(prior.c0 + Nk / 2.0, Ck, rng)
    return state


def step_hyper(state, prior, rng):
    """Redraw the hyperparameter C0 given the covariances of all K slots.

    In the telescoping sweep it runs right after compact_filled and the
    component update, so the K slots are exactly the filled components.
    """
    R = state.R
    rate = prior.G0 + (R @ R.swapaxes(1, 2)).sum(axis=0)
    # symmetric to rounding by construction, and exactly from here on
    rate = 0.5 * (rate + rate.T)
    alpha = np.array([prior.g0 + state.K * prior.c0])
    state.C0 = dist.sample_wishart_batch(alpha, rate[None], rng)[0]
    return state


def _gamma_K(gamma_spec, k_max):
    """gamma_K for K = 1..k_max as a float array."""
    K = np.arange(1, k_max + 1)
    return np.broadcast_to(gamma_spec.gamma_for(K), K.shape).astype(float)


@lru_cache(maxsize=16)
def _k_terms(gamma_spec, k_max, n):
    """The partition law's terms for K = 1..k_max, for one chain.

    Returns (log_fact, base, per_cluster, cluster_row): log_fact[j] =
    log j! for j = 0..k_max, base[K-1] = log K! + log Gamma(K gamma_K)
    - log Gamma(K gamma_K + n), and per_cluster[K-1] = log gamma_K
    - log Gamma(1 + gamma_K), the factor each filled cluster adds besides
    its row; cluster_row(size) is that row, log Gamma(size + gamma_K)
    over the same K, from a bounded cache of its own. So a K update
    looks up the frozen gamma_spec once, not once per cluster. One
    chain's constants: cached per (gamma_spec, k_max, n) and shared by
    every caller, so the arrays are read-only.
    """
    K = np.arange(1, k_max + 1)
    gam = _gamma_K(gamma_spec, k_max)
    log_fact = dist.log_gamma(np.arange(1.0, k_max + 2))
    base = (log_fact[1:] + dist.log_gamma(K * gam)
            - dist.log_gamma(K * gam + n))
    per_cluster = np.log(gam) - dist.log_gamma(1.0 + gam)
    for table in (log_fact, base, per_cluster):
        table.flags.writeable = False

    @lru_cache(maxsize=1024)
    def cluster_row(size):
        row = dist.log_gamma(size + gam)
        row.flags.writeable = False
        return row

    return log_fact, base, per_cluster, cluster_row


def _log_partition_given_k(N_k, gamma_spec, k_max):
    """log p(partition | K, gamma_K) for K = K+, ..., k_max.

    N_k holds the sizes of the K+ filled clusters. From the
    Dirichlet-multinomial law,

    p = K!/(K-K+)! * gamma^K+ * Gamma(K gamma)/Gamma(K gamma + N)
        * prod_k Gamma(N_k + gamma)/Gamma(1 + gamma)

    The gamma^K+ factor matters whenever gamma_K varies with K; without
    it the expression is not a partition probability (at N = 1 it would
    equal 1/gamma_K instead of 1). Every term comes from the per-chain
    tables of _k_terms.
    """
    kplus = N_k.size
    log_fact, base, per_cluster, cluster_row = _k_terms(
        gamma_spec, k_max, int(N_k.sum()))
    rows = sum(cluster_row(m) for m in N_k.tolist())
    logp = base + kplus * per_cluster + rows          # K = 1..k_max
    return logp[kplus - 1:] - log_fact[:k_max - kplus + 1]


def step_sample_K(state, prior, rng):
    """Redraw K conditional on the current cluster sizes (telescoping step).

    Evaluated in log space over K in {K_plus, ..., k_max} and normalized;
    the Dirichlet parameter is resolved per candidate K, so the dynamic
    gamma_K = alpha/K specification enters every factor.
    """
    kp = prior.k_prior
    if not isinstance(kp, RandomK):
        raise ValueError("sampling K requires a RandomK prior")
    kplus = state.K_plus
    if kp.k_max < kplus:
        raise ValueError(f"k_max = {kp.k_max} is below the current number "
                         f"of clusters {kplus}")
    filled = state.N_k[state.N_k > 0]
    logw = (_log_partition_given_k(filled, prior.gamma_spec, kp.k_max)
            + kp.log_prior[kplus - 1:])
    logw -= logw.max()
    w = np.exp(logw)
    state.K = kplus + dist.sample_categorical(w, rng)
    return state


def _keep_slots(state, order):
    """Keep the slots order, all filled ones among them, as 0, 1, ..."""
    remap = np.full(state.K, -1)
    remap[order] = np.arange(order.size)
    state.S = remap[state.S]
    state.eta = state.eta[order]
    state.mu = state.mu[order]
    state.R = state.R[order]
    state.K = int(order.size)
    state.refresh_counts()
    return state


def compact_filled(state):
    """Drop empty component slots, keeping filled ones in their relative order."""
    if state.K_plus == state.K:
        return state
    return _keep_slots(state, np.flatnonzero(state.N_k > 0))


def step_add_empty(state, prior, rng):
    """Grow the state to K slots by drawing empty components from the prior.

    Precondition: filled components occupy the leading slots (state was
    compacted) and state.K already holds the target K.
    """
    m = state.K - state.mu.shape[0]
    if m < 0:
        raise ValueError("state holds more components than K")
    if m == 0:
        return state
    mu_new, R_new = sample_components(prior, state.C0, m, rng)
    state.mu = np.concatenate([state.mu, mu_new])
    state.R = np.concatenate([state.R, R_new])
    state.eta = np.concatenate([state.eta, np.zeros(m)])
    state.refresh_counts()
    return state


def permute_labels_random(state, rng):
    """Apply a uniformly random permutation to the component labels."""
    return _keep_slots(state, rng.permutation(state.K))


# ---------------------------------------------------------------------------
# chain driver


def sweep(data, state, prior, rng, logp=None):
    """One Gibbs sweep: classify, component parameters, C0, weights.

    logp goes to step_classify, and the sweep returns the log-likelihood
    classify yields: that of the state the sweep started from. A RandomK
    prior adds compact_filled after classify, and step_sample_K and
    step_add_empty after C0. C0 then sees the filled components alone,
    which integrates the empties out, so by partially collapsed Gibbs
    (van Dyk & Park 2008) the empties are drawn after it, from the new C0
    (Fruehwirth-Schnatter, Malsiner-Walli & Gruen 2021).
    """
    telescoping = isinstance(prior.k_prior, RandomK)
    log_lik = step_classify(data, state, rng, logp)
    if telescoping:
        compact_filled(state)
    step_component_params(data, state, prior, rng)
    step_hyper(state, prior, rng)
    if telescoping:
        step_sample_K(state, prior, rng)
        step_add_empty(state, prior, rng)
    step_weights(state, prior.gamma_spec.gamma_for(state.K), rng)
    return log_lik


def run_chain(data, prior, config):
    """Run one MCMC chain and return its stored records plus trace series.

    Parameters
    ----------
    data : Dataset
    prior : PriorConfig
        Its k_prior picks the moves of the sweep: the telescoping ones
        for RandomK, none for FixedK (see sweep).
    config : ChainConfig
        Its seed starts the chain's own Generator, default_rng(seed).

    Returns
    -------
    ChainOutput
        Records hold the post-burn-in sweeps at the configured thinning;
        the trace dict carries per-iteration series for every sweep
        including burn-in. Row t of trace["log_lik"] is the mixture
        log-likelihood of the state sweep t ends with: sweep t + 1's
        classify yields it, and the last row is computed after the loop.
    """
    rng = np.random.default_rng(config.seed)
    telescoping = isinstance(prior.k_prior, RandomK)
    k_init = prior.k_prior.k_init if telescoping else prior.k_prior.K
    k_most = prior.k_prior.k_max if telescoping else k_init

    state = init_from_kmeans(data, prior, k_init, rng)
    M, burn, thin = config.n_iter, config.burn_in, config.thinning
    stored = np.arange(burn, M, thin)
    slots, r, C = stored.size * k_init, data.r, 0
    columns = (np.empty(slots), np.empty((slots, r)), np.empty((slots, r, r)),
               np.empty(slots, dtype=int))
    S = (np.empty((stored.size, data.n), dtype=label_dtype(k_most))
         if config.store_assignments else None)
    trace = {"log_lik": np.empty(M), "K": np.empty(M, dtype=int),
             "K_plus": np.empty(M, dtype=int)}
    if not telescoping:
        trace["mu1"] = np.empty((M, k_init))

    logp = None  # the first classify evaluates the densities itself
    for it in range(M):
        try:
            log_lik = sweep(data, state, prior, rng, logp)
            if config.permutation_step:
                permute_labels_random(state, rng)
            # the next classify's densities, and with them this sweep's
            # log-likelihood
            logp = log_weighted_densities(data, state)
        except Exception as exc:
            raise SamplerError(f"iteration {it}: {exc}") from exc
        if it:
            trace["log_lik"][it - 1] = log_lik

        trace["K"][it] = state.K
        trace["K_plus"][it] = state.K_plus
        if not telescoping:
            trace["mu1"][it] = state.mu[:, 0]
        if it >= burn and (it - burn) % thin == 0:
            start, C = C, C + state.K
            columns = grow(columns, C)
            for col, value in zip(columns, (state.eta, state.mu,
                                            state.R, state.N_k)):
                col[start:C] = value
            if S is not None:
                S[(it - burn) // thin] = state.S
    trace["log_lik"][M - 1] = mixture_log_likelihood(data, state, logp)

    factors = columns[2][:C]
    for start in range(0, C, _SIGMA_BLOCK):
        block = factors[start:start + _SIGMA_BLOCK]
        block[...] = dist.covariance_from_factor(block)
    records = Draws(stored, trace["K"][stored], trace["K_plus"][stored],
                    *(col[:C] for col in columns), S)
    return ChainOutput(records=records, trace=trace)
