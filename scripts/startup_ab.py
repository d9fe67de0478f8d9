"""Interleaved A/B timing of bgmix process start-up between two source trees.

    python scripts/startup_ab.py PARENT_SRC CHANGE_SRC --rounds R --out OUT.json

PARENT_SRC and CHANGE_SRC are the ``src`` directories of two checkouts.
Each run is a fresh Python process with PYTHONPATH set to one tree. It
does one of three things: ``import`` imports bgmix.cli; ``fit-sfm`` and
``fit-mfm`` run ``bgmix fit`` on the diabetes data (data/diabetes.csv
next to this script's checkout) and exit as soon as the k-means start
(`init_from_kmeans`) returns, before the first sweep. The child reports
the seconds from its first statement to that point and whether
scipy.special was loaded by then; the parent also times the whole
process, interpreter start included. Round by round the cases run in
turn, the two trees alternating which goes first, so slow phases of a
shared machine hit both alike.

The JSON written to --out has, per case and tree, every run's seconds
(in the child, and of the whole process) with their min and median, the
ratio of the medians (change / parent), and whether scipy.special was
loaded.
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

# case -> `bgmix fit` flags besides the data and --out; None only imports
CASES = {
    "import": None,
    "fit-sfm": ["--mode", "sfm", "--iters", "2000", "--burnin", "500",
                "--seed", "1"],
    "fit-mfm": ["--mode", "mfm", "--iters", "2000", "--burnin", "500",
                "--seed", "1"],
}

CHILD = """
import time
t0 = time.perf_counter()
import json, os, sys
import bgmix.cli
import bgmix.sampler

data, out, flags = sys.argv[1], sys.argv[2], json.loads(sys.argv[3])


def report():
    print(json.dumps({"seconds": time.perf_counter() - t0,
                      "scipy_special": "scipy.special" in sys.modules}))
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
bgmix.cli.main(["fit", data, *flags, "--out", out])
sys.exit("fit ended without calling init_from_kmeans")
"""


def run_once(src, case, out):
    """One fresh process on one tree: (child s, process s, scipy.special)."""
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, DATA, out, json.dumps(CASES[case])],
        env=env, capture_output=True, text=True, check=True)
    process_s = time.perf_counter() - t0
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return result["seconds"], process_s, result["scipy_special"]


def summarize(runs):
    return {"min_s": min(runs), "median_s": statistics.median(runs),
            "runs_s": runs}


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
    child = {case: {tree: [] for tree in trees} for case in CASES}
    process = {case: {tree: [] for tree in trees} for case in CASES}
    special = {case: {tree: set() for tree in trees} for case in CASES}
    scratch = tempfile.mkdtemp(prefix="startup_ab_")
    try:
        for rnd in range(args.rounds):
            order = list(trees) if rnd % 2 == 0 else list(trees)[::-1]
            for case in CASES:
                for tree in order:
                    secs, proc_s, loaded = run_once(
                        trees[tree], case, os.path.join(scratch, tree))
                    child[case][tree].append(secs)
                    process[case][tree].append(proc_s)
                    special[case][tree].add(loaded)
            print(f"round {rnd + 1}/{args.rounds}: " + ", ".join(
                f"{case} {child[case]['parent'][-1]:.3f}"
                f"/{child[case]['change'][-1]:.3f} s" for case in CASES),
                flush=True)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    cases = {}
    for case in CASES:
        entry = {}
        for tree in trees:
            loaded = special[case][tree]
            entry[tree] = {
                "child": summarize(child[case][tree]),
                "process": summarize(process[case][tree]),
                "scipy_special_loaded": (loaded.pop() if len(loaded) == 1
                                         else "varies"),
            }
        for part in ("child", "process"):
            entry[f"{part}_median_ratio"] = (
                entry["change"][part]["median_s"]
                / entry["parent"][part]["median_s"])
        cases[case] = entry
    report = {
        "what": "seconds from a fresh process's first statement to `import "
                "bgmix.cli` done (import) or to init_from_kmeans returned in "
                "`bgmix fit` on data/diabetes.csv (N=145, r=3) (fit-*); "
                "'process' is the whole process's wall time; trees "
                "interleaved",
        "config": {"rounds": args.rounds, "cases": CASES},
        "machine": {"cpus": os.cpu_count(), "machine": platform.machine(),
                    "python": platform.python_version(),
                    "numpy": np.__version__},
        "cases": cases,
    }
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    for case, entry in cases.items():
        print(f"{case}: parent {entry['parent']['child']['min_s']:.3f} "
              f"[{entry['parent']['child']['median_s']:.3f}] s, change "
              f"{entry['change']['child']['min_s']:.3f} "
              f"[{entry['change']['child']['median_s']:.3f}] s; "
              f"scipy.special loaded: parent "
              f"{entry['parent']['scipy_special_loaded']}, change "
              f"{entry['change']['scipy_special_loaded']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
