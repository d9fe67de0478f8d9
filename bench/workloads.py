"""The benchmark's workloads: CLI flags per stage and the inputs they read.

Every input is derived from the workload seed: the generated dataset and
the chain and relabeling seeds of each round. The program only ever sees
the generated files and flags.
"""

import os
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    data: tuple               # (n, groups, dim, spacing) of the generated CSV
    fit_flags: tuple          # flags besides --iters/--burnin/--seed
    iters: int
    burnin: int
    identify_flags: tuple

    @property
    def stored_sweeps(self):
        return self.iters - self.burnin

    @property
    def has_vi(self):
        return "--no-vi" not in self.identify_flags


WORKLOADS = {w.name: w for w in [
    Workload(
        name="synth-n150-mfm",
        why="N=150, r=3: per-call overhead dominates a sweep; the only "
            "workload with the telescoping K update and draws rows of "
            "varying width; VI is off, the control for VI work",
        # three well-separated groups, sized like the bundled diabetes data:
        # on the diabetes data itself a few percent of telescoping chains
        # settle at K+=4 with a two-point cluster, and identify exits 5
        data=(150, 3, 3, 8.0),
        fit_flags=("--mode", "mfm", "--bnb", "1,4,3", "--alpha", "0.5",
                   "--kmax", "100", "--kinit", "10"),
        iters=2000, burnin=1000,
        identify_flags=("--no-vi",)),
    Workload(
        name="synth-n4000",
        why="N=4000, r=5: N*K density arithmetic dominates a sweep, "
            "assignments files are wide, k-means init is costly, VI search "
            "over 100 candidates with O(N) pairs",
        # as many groups as components: at N=4000 the sparse sampler does
        # not empty surplus components within a few hundred sweeps, so with
        # fewer groups the surplus split true groups and relabeling fails
        data=(4000, 8, 5, 6.0),
        fit_flags=("--mode", "sfm", "--k", "8", "--gamma", "0.01"),
        iters=150, burnin=50,
        identify_flags=("--vi-thin", "100")),
]}


def rep_seeds(seed, workload, rep):
    """(chain seed, identify seed) of round `rep` of a run."""
    entropy = [seed, rep, *workload.name.encode()]
    state = np.random.SeedSequence(entropy).generate_state(2)
    return int(state[0]), int(state[1])


TRUTH_COL = "group"


def write_synthetic(path, n, groups, dim, spacing, seed):
    """Write an (n, dim) Gaussian-mixture CSV with a TRUTH_COL column.

    The group centres sit on a ring in a random plane, neighbours `spacing`
    standard deviations apart; each group has its own covariance with
    eigenvalues in [0.6, 1.5], and group sizes grow linearly from 1 to 2
    parts. This geometry is the same for every seed, because the cost of a
    sweep depends on it (one random geometry cost 25% more per sweep than
    others); the seed draws the labels and the points.
    """
    shape = np.random.default_rng([n, groups, dim])
    angle = 2 * np.pi * np.arange(groups) / groups
    radius = spacing / (2 * np.sin(np.pi / groups))
    ring = np.zeros((groups, dim))
    ring[:, 0], ring[:, 1] = radius * np.cos(angle), radius * np.sin(angle)
    plane, _ = np.linalg.qr(shape.standard_normal((dim, dim)))
    centers = ring @ plane.T + shape.normal(0.0, 3.0, dim)
    rot, _ = np.linalg.qr(shape.standard_normal((groups, dim, dim)))
    eig = shape.uniform(0.6, 1.5, (groups, dim))
    chol = np.linalg.cholesky(np.einsum("gij,gj,gkj->gik", rot, eig, rot))
    weights = np.linspace(1.0, 2.0, groups)
    rng = np.random.default_rng([seed, n, groups, dim])
    labels = rng.choice(groups, n, p=weights / weights.sum())
    y = centers[labels] + np.einsum("nij,nj->ni", chol[labels],
                                    rng.standard_normal((n, dim)))
    with open(path, "w") as fh:
        fh.write(",".join(f"x{j + 1}" for j in range(dim))
                 + f",{TRUTH_COL}\n")
        for row, lab in zip(y.tolist(), labels.tolist()):
            fh.write(",".join(repr(v) for v in row) + f",g{lab + 1}\n")


def write_dataset(workload, work_dir, seed):
    """Write the workload's input CSV for `seed`; its path."""
    path = os.path.join(work_dir, "data.csv")
    write_synthetic(path, *workload.data, seed)
    return path
