"""Geweke (2004) joint-distribution check of the Gibbs sweep.

    python scripts/geweke.py --sweep fixed|telescoping [--permute]
                             [--draws 300000] [--seed 0]

Two samplers of the joint law p(theta, S, y) of the model are compared:

* marginal-conditional: theta, S and y drawn from the model by
  model.generate_synthetic, independently each time. It draws K without
  the sampler's truncation at k_max, so draws with K > k_max are
  rejected.
* successive-conditional: a chain that alternates one sampler.sweep,
  a draw of (theta, S) given y, with a fresh (S, y) given theta
  (model.sample_observations). With --permute each sweep is followed by
  sampler.permute_labels_random, as `fit --permute` runs it.

Both leave the joint law invariant only if the sweep does, so every test
function should have the same mean under both. For each, the script
prints the two means and z = (m_mc - m_sc) / sqrt(se_mc^2 + se_sc^2),
each standard error from 200 batch means; |z| > 3 is marked with "*".
The successive-conditional values are taken at the end of a sweep,
together with the y that sweep conditioned on. The script calls the
library's sweep, so it checks the step order that run_chain runs.

The prior is built by hand and fixed (r = 1, N = 3 observations), because
build_default_prior follows y and a prior that moved with the simulated
data would not be the one the draws come from. --sweep telescoping uses
RandomK(1, 4, 3, k_max=30) and DynamicGamma(0.5); --sweep fixed uses
FixedK(4) and FixedGamma(0.5). The separating function for the order of
the C0 update is g, a function of the empty components: at 300000 draws a
sweep that draws the empties from a stale C0 shows |z| > 3 there.
300000 draws take a few minutes per sweep on one core.
"""

import argparse
import os
import sys
import time

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "src"))

from bgmix import sampler  # noqa: E402
from bgmix.model import (DynamicGamma, FixedGamma, FixedK,  # noqa: E402
                         PriorConfig, RandomK, generate_synthetic,
                         sample_observations)

N_OBS = 3
BATCHES = 200
FUNCTIONS = ("K", "K+", "1{K=1}", "1{K+=1}", "log C0", "mu_S1",
             "log Sigma_S1", "eta_S1", "1{S1=S2}", "y1", "y1^2", "g")


def fixed_prior(sweep):
    """The hand-built r = 1 prior; c = 2.5, phi = 0.75 and a unit scale
    give the defaults' c0, g0, C0_init and G0."""
    if sweep == "telescoping":
        gamma_spec, k_prior = DynamicGamma(0.5), RandomK(1.0, 4.0, 3.0,
                                                          k_max=30, k_init=4)
    else:
        gamma_spec, k_prior = FixedGamma(0.5), FixedK(4)
    c, phi, r = 2.5, 0.75, 1
    C0_init = np.array([[c * phi]])
    g0 = 1.0 + (r - 1) / 2.0
    return PriorConfig(gamma_spec=gamma_spec, b0=np.zeros(r), B0=np.eye(r),
                       c=c, phi=phi, c0=c + (r + 1) / 2.0, g0=g0,
                       C0_init=C0_init, G0=g0 * np.linalg.inv(C0_init),
                       k_prior=k_prior)


def test_functions(state, y):
    """The values of FUNCTIONS at one point (theta, S, y)."""
    s1 = state.S[0]
    log_C0 = np.log(state.C0[0, 0])
    log_Sigma = np.log(state.Sigma[:, 0, 0])
    empty = state.N_k == 0
    g = log_C0 * log_Sigma[empty].mean() if empty.any() else 0.0
    return (state.K, state.K_plus, state.K == 1, state.K_plus == 1, log_C0,
            state.mu[s1, 0], log_Sigma[s1], state.eta[s1],
            state.S[0] == state.S[1], y[0, 0], y[0, 0] ** 2, g)


def within_k_max(prior, state):
    """Whether a generated state lies in the sampler's support of K."""
    return (not isinstance(prior.k_prior, RandomK)
            or state.K <= prior.k_prior.k_max)


def marginal_conditional(prior, draws, rng):
    out = np.empty((draws, len(FUNCTIONS)))
    i = 0
    while i < draws:
        data, state = generate_synthetic(prior, N_OBS, rng)
        if not within_k_max(prior, state):
            continue
        out[i] = test_functions(state, data.y)
        i += 1
    return out


def successive_conditional(prior, draws, rng, permute):
    out = np.empty((draws, len(FUNCTIONS)))
    while True:
        data, state = generate_synthetic(prior, N_OBS, rng)
        if within_k_max(prior, state):
            break
    for i in range(draws):
        sampler.sweep(data, state, prior, rng)
        if permute:
            sampler.permute_labels_random(state, rng)
        out[i] = test_functions(state, data.y)
        state.S, data.y = sample_observations(state.eta, state.mu,
                                              state.Sigma, N_OBS, rng)
        state.refresh_counts()
    return out


def batch_mean_se(x):
    """Means and their standard errors from BATCHES batch means per column."""
    usable = x[:x.shape[0] // BATCHES * BATCHES]
    means = usable.reshape(BATCHES, -1, x.shape[1]).mean(axis=1)
    return x.mean(axis=0), means.std(axis=0, ddof=1) / np.sqrt(BATCHES)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--sweep", choices=("fixed", "telescoping"),
                    required=True)
    ap.add_argument("--permute", action="store_true")
    ap.add_argument("--draws", type=int, default=300000)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)
    if args.draws < BATCHES:
        ap.error(f"--draws must be at least {BATCHES}")

    prior = fixed_prior(args.sweep)
    mc_rng, sc_rng = np.random.default_rng(args.seed).spawn(2)
    start = time.perf_counter()
    mc = marginal_conditional(prior, args.draws, mc_rng)
    sc = successive_conditional(prior, args.draws, sc_rng, args.permute)
    elapsed = time.perf_counter() - start

    print(f"sweep {args.sweep}{' --permute' if args.permute else ''}, "
          f"{args.draws} draws each way, seed {args.seed}, {elapsed:.0f} s")
    print(f"{'function':<14}{'marginal':>12}{'successive':>12}{'z':>9}")
    (m_mc, se_mc), (m_sc, se_sc) = batch_mean_se(mc), batch_mean_se(sc)
    for j, name in enumerate(FUNCTIONS):
        se = np.hypot(se_mc[j], se_sc[j])
        z = (m_mc[j] - m_sc[j]) / se if se > 0 else 0.0
        flag = " *" if abs(z) > 3 else ""
        print(f"{name:<14}{m_mc[j]:>12.5f}{m_sc[j]:>12.5f}{z:>9.2f}{flag}")


if __name__ == "__main__":
    main()
