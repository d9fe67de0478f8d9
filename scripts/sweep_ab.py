"""Interleaved A/B timing of `run_chain` between two bgmix source trees.

    python scripts/sweep_ab.py PARENT_SRC CHANGE_SRC --rounds R --out OUT.json

PARENT_SRC and CHANGE_SRC are the ``src`` directories of two checkouts.
Each run is a fresh Python process with PYTHONPATH set to one tree; it
fits the diabetes data (data/diabetes.csv next to this script's
checkout) in one mode for ITERS sweeps, times `run_chain`, and prints
microseconds per sweep together with a SHA-256 digest of every stored column and trace
series. Round by round the modes run in turn, the two trees alternating
which goes first, so slow phases of a shared machine hit both alike.

The JSON written to --out has, per mode and tree, every run's µs/sweep
with its min and median, the ratio of the medians (change / parent), and
whether the two trees' draws are equal byte for byte.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

import numpy as np

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                    "data", "diabetes.csv")

ITERS, BURNIN, SEED = 2000, 500, 1

# mode -> "k_prior, gamma_spec", evaluated as written by the child process
MODES = {
    "fixed-k": "FixedK(3), FixedGamma(1.0)",
    "sfm": "FixedK(10), FixedGamma(0.01)",
    "mfm": "RandomK(1.0, 4.0, 3.0, k_max=100, k_init=10), DynamicGamma(0.5)",
}

CHILD = """
import hashlib, json, sys, time
import numpy as np
from bgmix.cli import load_dataset
from bgmix.model import (ChainConfig, DynamicGamma, FixedGamma, FixedK,
                         RandomK, build_default_prior)
from bgmix.sampler import run_chain

path, priors, iters, burn, seed = sys.argv[1:]
data = load_dataset(path)
k_prior, gamma_spec = eval(priors)
prior = build_default_prior(data, gamma_spec=gamma_spec, k_prior=k_prior)
config = ChainConfig(n_iter=int(iters), burn_in=int(burn), seed=int(seed))
t0 = time.perf_counter()
out = run_chain(data, prior, config)
elapsed = time.perf_counter() - t0
digest = hashlib.sha256()
rec = out.records
for col in (rec.iter, rec.K, rec.K_plus, rec.eta, rec.mu, rec.Sigma,
            rec.N_k, rec.S):
    digest.update(np.ascontiguousarray(col).tobytes())
for name in sorted(out.trace):
    digest.update(np.ascontiguousarray(out.trace[name]).tobytes())
print(json.dumps({"us_per_sweep": elapsed / config.n_iter * 1e6,
                  "digest": digest.hexdigest()}))
"""


def run_once(src, mode):
    """One fresh process on one tree: (µs per sweep, digest)."""
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, DATA, MODES[mode], str(ITERS),
         str(BURNIN), str(SEED)],
        env=env, capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return result["us_per_sweep"], result["digest"]


def summarize(runs):
    return {"min_us": min(runs), "median_us": statistics.median(runs),
            "runs_us": runs}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent_src")
    parser.add_argument("change_src")
    parser.add_argument("--rounds", type=int, default=7)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")

    trees = {"parent": args.parent_src, "change": args.change_src}
    times = {mode: {tree: [] for tree in trees} for mode in MODES}
    digests = {mode: {tree: set() for tree in trees} for mode in MODES}
    for rnd in range(args.rounds):
        order = list(trees) if rnd % 2 == 0 else list(trees)[::-1]
        for mode in MODES:
            for tree in order:
                us, digest = run_once(trees[tree], mode)
                times[mode][tree].append(us)
                digests[mode][tree].add(digest)
        print(f"round {rnd + 1}/{args.rounds}: " + ", ".join(
            f"{mode} {times[mode]['parent'][-1]:.0f}"
            f"/{times[mode]['change'][-1]:.0f} us" for mode in MODES),
            flush=True)

    modes = {}
    for mode in MODES:
        entry = {tree: summarize(times[mode][tree]) for tree in trees}
        entry["median_ratio"] = (entry["change"]["median_us"]
                                 / entry["parent"]["median_us"])
        # one digest per tree (runs are deterministic), and the same one
        entry["draws_equal"] = (len(digests[mode]["parent"]) == 1
                                and digests[mode]["parent"]
                                == digests[mode]["change"])
        modes[mode] = entry
    report = {
        "what": "run_chain wall time per sweep on data/diabetes.csv "
                "(N=145, r=3), fresh process per run, trees interleaved",
        "config": {"iters": ITERS, "burnin": BURNIN, "seed": SEED,
                   "rounds": args.rounds,
                   "modes": MODES},
        "machine": {"cpus": os.cpu_count(), "machine": platform.machine(),
                    "python": platform.python_version(),
                    "numpy": np.__version__},
        "modes": modes,
    }
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    for mode, entry in modes.items():
        print(f"{mode}: parent {entry['parent']['min_us']:.0f} "
              f"[{entry['parent']['median_us']:.0f}] us, change "
              f"{entry['change']['min_us']:.0f} "
              f"[{entry['change']['median_us']:.0f}] us, "
              f"draws equal: {entry['draws_equal']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
