"""Interleaved A/B timing of two bgmix source trees.

    python scripts/ab.py CASE PARENT_SRC CHANGE_SRC --rounds R --out OUT.json

PARENT_SRC and CHANGE_SRC are the ``src`` directories of two checkouts.
Each run is a fresh Python process with PYTHONPATH set to one tree; it
reports one time and one check value. Round by round the case's variants
run in turn, the two trees alternating which goes first, so slow phases
of a shared machine hit both alike. Every case but sweep-n4000 and the
n4000 variants of rss reads data/diabetes.csv (N=145, r=3) next to this
script's checkout. CASE is one of:

sweep    µs per sweep of `run_chain` in fixed-k (K=3), sfm (K=10,
         gamma 0.01) and mfm, 2000 sweeps with burn-in 500, seed 1,
         without its k-means start, whose seconds are reported apart
         (init_s); the bench's sweep_us includes the start. Check:
         SHA-256 of the draws file `write_draws` makes of the records,
         and of S as int64, so the same check means the same chain
         whatever layout and label type the records have in memory. Trace: SHA-256 of the
         trace series, reported apart, because the log-likelihood's
         last bits follow the density arithmetic. Faults: minor page
         faults of the process during `run_chain` (getrusage
         ru_minflt) per sweep, which count memory handed back to the
         system and taken again; init_faults: those of its k-means
         start alone, in total. glibc's dynamic mmap threshold decides
         how much freed memory goes back, and it rises with the largest
         block freed so far, so both counts depend on what the process
         allocated before.
sweep-n4000
         the sweep case in sfm (K=8, gamma 0.01), 150 sweeps with
         burn-in 50, seed 1, on N=4000, r=5 data: eight groups drawn
         by numpy from a fixed seed before the rounds, so both trees
         read the same file. At this size the (K, N, r) density arrays
         dominate a sweep, which the diabetes data cannot show.
startup  seconds from the process's first statement to `import
         bgmix.cli` done (import), or to the return of `init_from_kmeans`
         in `bgmix fit` in sfm and mfm (the process then exits before
         the first sweep). Check: whether scipy was loaded.
rss      peak resident memory in MiB (ru_maxrss from os.wait4) of one
         `bgmix fit` or `bgmix identify` process: 30000 sweeps, burn-in
         5000, seed 1, in sfm (K=10) and mfm; and (n4000) on the
         sweep-n4000 data, sfm with K=8 and gamma 0.01, 150 sweeps,
         burn-in 50, seed 1, identify with --vi-thin 100, the shape of
         the bench's synth-n4000. identify reads the draws of a fit the
         parent tree runs once before the rounds; both trees write the
         same bytes. Check: SHA-256 of the CSV files the command
         writes. wall_s: the command's wall time.
vi       seconds of one `vi_partition(S, thin_to=500)` call, where S
         holds the assignments of a fixed-k (K=3) chain of 3000 sweeps,
         burn-in 500, seed 1, run once by the parent tree before the
         rounds. Check: SHA-256 of the chosen partition.

The JSON written to --out has, per variant and tree, every run's time in
the child and of the whole process (interpreter start included) with
their min and median, the ratio of the medians (change / parent), the
check value, and the trace value where the case has one ("varies" if the
runs disagree); `same_check` and `same_trace` say whether both trees gave
the same one. Counts a child reports beside its time (the sweep cases'
fault counts) get a min and median like the times.

Each variant also gets a paired verdict on the child times, where lower
is better: the change / parent ratio of every round's pair, the number
of pairs the change won (ties count for neither), the parent's
interquartile range and the gap between the two medians. `claim_holds`
says whether a gain would be claimable: the change won at least nine
tenths of the pairs and its median lies below the parent's by more than
the parent's interquartile range.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import numpy as np

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                    "data", "diabetes.csv")

# Children print one JSON line {"value": ..., "check": ...}, the sweep
# child with a "trace" digest and fault counts too; argv is [data,
# scratch directory, variant argument as JSON].

SWEEP = """
import hashlib, json, os, resource, sys, time
import numpy as np
from bgmix.artifacts import write_draws
from bgmix.cli import load_dataset
from bgmix.model import (ChainConfig, DynamicGamma, FixedGamma, FixedK,
                         RandomK, build_default_prior)
import bgmix.sampler


def minflt():
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


init, init_faults, init_s = bgmix.sampler.init_from_kmeans, [], []


def counted_init(*args):
    before, t0 = minflt(), time.perf_counter()
    state = init(*args)
    init_s.append(time.perf_counter() - t0)
    init_faults.append(minflt() - before)
    return state


bgmix.sampler.init_from_kmeans = counted_init
data = load_dataset(sys.argv[1])
spec, n_iter, burn_in = json.loads(sys.argv[3])
k_prior, gamma_spec = eval(spec)
prior = build_default_prior(data, gamma_spec=gamma_spec, k_prior=k_prior)
config = ChainConfig(n_iter=n_iter, burn_in=burn_in, seed=1)
faults = minflt()
t0 = time.perf_counter()
out = bgmix.sampler.run_chain(data, prior, config)
elapsed = time.perf_counter() - t0
faults = minflt() - faults
draws, trace = hashlib.sha256(), hashlib.sha256()
path = os.path.join(sys.argv[2], f"draws-{os.getpid()}.csv")
write_draws(path, out.records)
with open(path, "rb") as fh:
    draws.update(fh.read())
os.remove(path)
draws.update(np.ascontiguousarray(out.records.S, dtype=np.int64).tobytes())
for name in sorted(out.trace):
    trace.update(np.ascontiguousarray(out.trace[name]).tobytes())
print(json.dumps({"value": (elapsed - init_s[0]) / config.n_iter * 1e6,
                  "init_s": init_s[0],
                  "faults": faults / config.n_iter,
                  "init_faults": init_faults[0],
                  "check": draws.hexdigest(), "trace": trace.hexdigest()}))
"""

N4000 = """
import os, sys
import numpy as np

rng = np.random.default_rng(4000)
centers = rng.normal(0.0, 6.0, size=(8, 5))
y = centers[rng.integers(0, 8, size=4000)] + rng.standard_normal((4000, 5))
np.savetxt(os.path.join(sys.argv[2], "n4000.csv"), y, fmt="%.17g",
           delimiter=",", header="x1,x2,x3,x4,x5", comments="")
"""

STARTUP = """
import time
t0 = time.perf_counter()
import json, os, sys
import bgmix.cli
import bgmix.sampler

data, scratch, flags = sys.argv[1], sys.argv[2], json.loads(sys.argv[3])


def report():
    print(json.dumps({"value": time.perf_counter() - t0,
                      "check": "scipy" in sys.modules}))
    sys.stdout.flush()


if flags is None:
    report()
    sys.exit(0)
init = bgmix.sampler.init_from_kmeans


def init_then_exit(*args, **kwargs):
    init(*args, **kwargs)
    report()
    os._exit(0)


bgmix.sampler.init_from_kmeans = init_then_exit
bgmix.cli.main(["fit", data, *flags, "--out", os.path.join(scratch, "fit")])
sys.exit("fit ended without calling init_from_kmeans")
"""

VI_CHAIN = """
import os, sys
import numpy as np
from bgmix.cli import load_dataset
from bgmix.model import ChainConfig, FixedGamma, FixedK, build_default_prior
from bgmix.sampler import run_chain

data = load_dataset(sys.argv[1])
prior = build_default_prior(data, gamma_spec=FixedGamma(1.0),
                            k_prior=FixedK(3))
out = run_chain(data, prior, ChainConfig(n_iter=3000, burn_in=500, seed=1))
np.save(os.path.join(sys.argv[2], "vi_S.npy"), out.records.S)
"""

VI = """
import hashlib, json, os, sys, time
import numpy as np
from bgmix.postprocess import vi_partition

S = np.load(os.path.join(sys.argv[2], "vi_S.npy"))
t0 = time.perf_counter()
part = vi_partition(S, thin_to=json.loads(sys.argv[3]))
elapsed = time.perf_counter() - t0
print(json.dumps({"value": elapsed, "check": hashlib.sha256(
    np.ascontiguousarray(part.labels, dtype=np.int64).tobytes()).hexdigest()}))
"""

RSS = """
import hashlib, json, os, shutil, sys, time

data, scratch, arg = sys.argv[1], sys.argv[2], json.loads(sys.argv[3])
CHAIN = ["--iters", "30000", "--burnin", "5000", "--seed", "1"]
# per data set: its file, the fit's flags and identify's
RUNS = {"sfm": (data, ["--mode", "sfm", "--k", "10", *CHAIN], []),
        "mfm": (data, ["--mode", "mfm", *CHAIN], []),
        "n4000": (os.path.join(scratch, "n4000.csv"),
                  ["--mode", "sfm", "--k", "8", "--gamma", "0.01", "--iters",
                   "150", "--burnin", "50", "--seed", "1"],
                  ["--vi-thin", "100"])}


def run(args):
    t0 = time.perf_counter()
    pid = os.posix_spawn(
        sys.executable, [sys.executable, "-m", "bgmix.cli", *args],
        os.environ,
        file_actions=[(os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0)])
    _, status, usage = os.wait4(pid, 0)
    if os.waitstatus_to_exitcode(status) != 0:
        sys.exit(f"bgmix {args[0]} failed: wait status {status}")
    return usage.ru_maxrss / 1024, time.perf_counter() - t0


if arg is None:     # the draws every identify run reads, made once
    for name, (path, fit_flags, _) in RUNS.items():
        run(["fit", path, *fit_flags, "--out",
             os.path.join(scratch, "fit-" + name)])
    sys.exit(0)
command, which = arg
path, fit_flags, identify_flags = RUNS[which]
out = os.path.join(scratch, "out")
if command == "fit":
    args = ["fit", path, *fit_flags]
else:
    args = ["identify", os.path.join(scratch, "fit-" + which, "draws.csv"),
            *identify_flags]
mib, seconds = run(args + ["--out", out])
digest = hashlib.sha256()
for name in sorted(os.listdir(out)):
    if name.endswith(".csv"):
        with open(os.path.join(out, name), "rb") as fh:
            digest.update(fh.read())
shutil.rmtree(out)
print(json.dumps({"value": mib, "wall_s": seconds,
                  "check": digest.hexdigest()}))
"""

DIABETES = "data/diabetes.csv (N=145, r=3)"
SWEEP_COUNTS = {"init_s": "s, the k-means start", "faults": "per sweep",
                "init_faults": "per chain"}

# the child, the unit of its time, {variant: argument}, a child run once
# by the parent tree before the rounds, the data file (None: DATA, else a
# file the setup child writes to the scratch directory) and what it holds,
# the counts the child reports beside its time with their units, and what
# the time measures
CASES = {
    "sweep": {
        "child": SWEEP, "unit": "us", "setup": None,
        "data": None, "data_what": DIABETES, "counts": SWEEP_COUNTS,
        "variants": {
            "fixed-k": ["FixedK(3), FixedGamma(1.0)", 2000, 500],
            "sfm": ["FixedK(10), FixedGamma(0.01)", 2000, 500],
            "mfm": ["RandomK(1.0, 4.0, 3.0, k_max=100, k_init=10), "
                    "DynamicGamma(0.5)", 2000, 500]},
        "what": "run_chain wall time per sweep without the k-means start, "
                "2000 sweeps, burn-in 500, seed 1; init_s: seconds of the "
                "start (init_from_kmeans); faults: minor page faults in "
                "run_chain per sweep, init_faults: those of its k-means "
                "start; "
                "check: SHA-256 of the draws file and S (same check, "
                "same chain); trace: SHA-256 of the trace series"},
    "sweep-n4000": {
        "child": SWEEP, "unit": "us", "setup": N4000,
        "data": "n4000.csv", "counts": SWEEP_COUNTS,
        "data_what": "N=4000, r=5, eight groups, numpy seed 4000",
        "variants": {"sfm": ["FixedK(8), FixedGamma(0.01)", 150, 50]},
        "what": "run_chain wall time per sweep without the k-means start, "
                "150 sweeps, burn-in 50, seed 1; init_s: seconds of the "
                "start (init_from_kmeans); faults: minor page faults in "
                "run_chain per sweep, init_faults: those of its k-means "
                "start; "
                "check: SHA-256 of the draws file and S (same check, "
                "same chain); trace: SHA-256 of the trace series"},
    "startup": {
        "child": STARTUP, "unit": "s", "setup": None,
        "data": None, "data_what": DIABETES, "counts": {},
        "variants": {
            "import": None,
            "fit-sfm": ["--mode", "sfm", "--iters", "2000", "--burnin",
                        "500", "--seed", "1"],
            "fit-mfm": ["--mode", "mfm", "--iters", "2000", "--burnin",
                        "500", "--seed", "1"]},
        "what": "seconds from the first statement to `import bgmix.cli` "
                "done (import) or to init_from_kmeans returned in `bgmix "
                "fit` (fit-*); check: scipy loaded"},
    "rss": {
        # the setup writes the n4000 data, then runs the fits
        "child": RSS, "unit": "MiB", "setup": N4000 + RSS,
        "data": None, "data_what": DIABETES + "; n4000: N=4000, r=5, "
        "eight groups, numpy seed 4000",
        "counts": {"wall_s": "s, the bgmix command"},
        "variants": {"fit-sfm": ["fit", "sfm"], "fit-mfm": ["fit", "mfm"],
                     "fit-n4000": ["fit", "n4000"],
                     "identify-sfm": ["identify", "sfm"],
                     "identify-mfm": ["identify", "mfm"],
                     "identify-n4000": ["identify", "n4000"]},
        "what": "peak resident memory (ru_maxrss from os.wait4) of one "
                "bgmix fit or identify process, 30000 sweeps, burn-in 5000, "
                "seed 1, sfm (K=10) and mfm; n4000: sfm (K=8, gamma 0.01), "
                "150 sweeps, burn-in 50, seed 1, identify --vi-thin 100; "
                "identify reads the draws of one fit by the parent tree; "
                "check: SHA-256 of the CSV files the command writes"},
    "vi": {
        "child": VI, "unit": "s", "setup": VI_CHAIN,
        "data": None, "data_what": DIABETES, "counts": {},
        "variants": {"thin-500": 500},
        "what": "seconds of vi_partition(S, thin_to=500) on the assignments "
                "of a fixed-k (K=3) chain, 3000 sweeps, burn-in 500, seed 1; "
                "check: SHA-256 of the chosen partition"},
}


def run_child(src, code, scratch, arg=None, data=DATA):
    """One fresh process on one tree: (its JSON report, process seconds)."""
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", code, data, scratch, json.dumps(arg)],
        env=env, capture_output=True, text=True, check=True)
    process_s = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    return (json.loads(lines[-1]) if lines else None), process_s


def summarize(runs):
    return {"min": min(runs), "median": statistics.median(runs),
            "runs": runs}


def paired_verdict(parent, change):
    """The paired claim rule on per-round times, lower being better."""
    wins = sum(c < p for p, c in zip(parent, change))
    q1, _, q3 = (statistics.quantiles(parent, n=4, method="inclusive")
                 if len(parent) > 1 else (parent[0],) * 3)
    gap = statistics.median(parent) - statistics.median(change)
    return {"ratios": [c / p for p, c in zip(parent, change)],
            "wins": wins, "pairs": len(parent), "parent_iqr": q3 - q1,
            "median_gap": gap,
            "claim_holds": wins >= 0.9 * len(parent) and gap > q3 - q1}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("case", choices=CASES)
    parser.add_argument("parent_src")
    parser.add_argument("change_src")
    parser.add_argument("--rounds", type=int, default=7)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")

    case = CASES[args.case]
    unit, variants = case["unit"], case["variants"]
    series = ["child", "process", *case["counts"]]
    trees = {"parent": args.parent_src, "change": args.change_src}
    # per variant and tree: times and counts, and the set of values of
    # each check
    runs = {v: {tree: {**{part: [] for part in series}, "checks": {}}
                for tree in trees} for v in variants}
    scratch = tempfile.mkdtemp(prefix="bgmix_ab_")
    data = (DATA if case["data"] is None
            else os.path.join(scratch, case["data"]))
    try:
        if case["setup"] is not None:
            run_child(trees["parent"], case["setup"], scratch)
        for rnd in range(args.rounds):
            order = list(trees) if rnd % 2 == 0 else list(trees)[::-1]
            for variant, arg in variants.items():
                for tree in order:
                    report, process_s = run_child(
                        trees[tree], case["child"], scratch, arg, data)
                    run = runs[variant][tree]
                    run["child"].append(report.pop("value"))
                    run["process"].append(process_s)
                    for key, value in report.items():
                        if key in run:
                            run[key].append(value)
                        else:
                            run["checks"].setdefault(key, set()).add(value)
            print(f"round {rnd + 1}/{args.rounds}: " + ", ".join(
                f"{v} {runs[v]['parent']['child'][-1]:.4g}"
                f"/{runs[v]['change']['child'][-1]:.4g} {unit}"
                for v in variants), flush=True)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    results = {}
    for variant in variants:
        entry = {}
        for tree in trees:
            run = runs[variant][tree]
            entry[tree] = {part: summarize(run[part]) for part in series}
            for key, values in run["checks"].items():
                entry[tree][key] = (next(iter(values)) if len(values) == 1
                                    else "varies")
        for part in ("child", "process"):
            entry[f"{part}_median_ratio"] = (entry["change"][part]["median"]
                                             / entry["parent"][part]["median"])
        entry["paired"] = paired_verdict(runs[variant]["parent"]["child"],
                                         runs[variant]["change"]["child"])
        for key in runs[variant]["parent"]["checks"]:
            entry[f"same_{key}"] = (entry["parent"][key] != "varies"
                                    and entry["parent"][key]
                                    == entry["change"][key])
        results[variant] = entry
    report = {
        "case": args.case,
        "what": case["what"] + f"; {case['data_what']}, fresh process "
                "per run, trees interleaved",
        "units": {"child": unit, "process": "s",
                  **case["counts"]},
        "rounds": args.rounds,
        "variants": variants,
        "machine": {"cpus": os.cpu_count(), "machine": platform.machine(),
                    "python": platform.python_version(),
                    "numpy": np.__version__},
        "results": results,
    }
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    for variant, entry in results.items():
        checks = "; ".join(
            f"{key} parent {entry['parent'][key]}, change "
            f"{entry['change'][key]}, same: {entry[f'same_{key}']}"
            for key in runs[variant]["parent"]["checks"])
        counts = "".join(
            f"; {count} median parent {entry['parent'][count]['median']:.4g}"
            f", change {entry['change'][count]['median']:.4g}"
            for count in case["counts"])
        print(f"{variant}: parent {entry['parent']['child']['min']:.4g} "
              f"[{entry['parent']['child']['median']:.4g}] {unit}, change "
              f"{entry['change']['child']['min']:.4g} "
              f"[{entry['change']['child']['median']:.4g}] {unit}{counts}; "
              f"{checks}")
        paired = entry["paired"]
        print(f"{variant}: change won {paired['wins']}/{paired['pairs']} "
              f"pairs, median gap {paired['median_gap']:.4g} {unit}, parent "
              f"IQR {paired['parent_iqr']:.4g} {unit}, claim holds: "
              f"{paired['claim_holds']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
