"""Benchmark of the bgmix pipeline: `fit`, then `identify`, then `evaluate`.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a bgmix checkout; it needs only ``src/`` there. It
writes to ``.bench_out/`` under that root and removes it again. Each stage
runs in a fresh process, as a user runs it.

The run writes the workload's dataset from N, then repeats rounds of work
for S seconds, each round with its own seeds derived from N. With
``--trace 0`` a round is two set-up probes and the pipeline, and the run
reports the median of each end-to-end metric. With ``--trace 1`` a round
is the pipeline untraced and then traced with the same seeds: the traced
one gives the per-layer metrics, the pair gives the tracing overhead, and
the two must write identical files.

Every round's outputs are checked; the last line of standard output
is one JSON object with keys correct, attempted, failed and metrics.
"""

import argparse
import csv
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

from estimators import adjusted_rand, effective_sample_size
from tracer import PER_LAYER, layer_metrics
from workloads import TRUTH_COL, WORKLOADS, rep_seeds, write_dataset

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))

# end-to-end metric name -> unit
END_TO_END = {
    "setup_s": "s",
    "fit_s": "s",
    "sweep_us": "us",
    "identify_s": "s",
    "pipeline_s": "s",
    "peak_rss_mb": "MB",
    "artifact_mb": "MB",
    "success_rate": "ratio",
}

SETUP_PER_ROUND = 2
MIN_ARI = 0.9              # MAP and VI partitions against the truth
RUN_LIMIT_S = 170          # every process is gone by then
ARTIFACTS = ("draws.csv", "assignments.csv", "trace.csv")
DIGESTED = ("draws.csv", "partition_map.csv", "partition_vi.csv")


def run_process(argv, log_path, env, timeout):
    """Run one process to completion: (exit code, wall s, peak RSS MB)."""
    with open(log_path, "wb") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT,
                                env=env)
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def read_rows(path):
    with open(path, newline="") as fh:
        rows = [row for row in csv.reader(fh) if row]
    return rows[0], rows[1:]


def column(path, name):
    header, body = read_rows(path)
    j = header.index(name)
    return [row[j] for row in body]


def draws_problems(path, stored, n):
    """Ways the draws file breaks its invariants; empty when it holds."""
    header, body = read_rows(path)
    if len(body) != stored:
        return [f"{len(body)} draws rows, expected {stored}"]
    r = sum(name.startswith("mu_1_") for name in header)
    block = 2 + r + r * (r + 1) // 2      # eta, mu, sigma, N per component
    problems = []
    for row in body:
        K = int(row[1])
        eta = sum(float(v) for v in row[3:3 + K])
        N_k = [int(v) for v in row[3 + K * (block - 1):3 + K * block]]
        if len(row) != 3 + K * block:
            problems.append(f"iter {row[0]}: {len(row)} fields for K={K}")
        elif abs(eta - 1.0) > 1e-9:
            problems.append(f"iter {row[0]}: weights sum to {eta!r}")
        elif sum(N_k) != n:
            problems.append(f"iter {row[0]}: N_k sums to {sum(N_k)}, not {n}")
    return problems


def partition_problems(path, n):
    header, body = read_rows(path)
    if header != ["index", "label"]:
        return [f"{path}: header {header}"]
    if [row[0] for row in body] != [str(i) for i in range(1, n + 1)]:
        return [f"{path}: {len(body)} rows, expected indices 1..{n}"]
    labels = {int(row[1]) for row in body}
    if labels != set(range(1, len(labels) + 1)):
        return [f"{path}: labels {sorted(labels)} are not 1..n_groups"]
    return []


class Bench:
    """One benchmark run: its workload, inputs, outputs and check tally."""

    def __init__(self, workload, seed, root, work):
        self.wl, self.seed, self.work = workload, seed, work
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self.deadline = time.perf_counter() + RUN_LIMIT_S
        self.attempted = 0
        self.failures = []
        self.data = write_dataset(workload, work, seed)
        self.truth = column(self.data, TRUTH_COL)

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok

    def time_left(self):
        return self.deadline - time.perf_counter()

    def stage(self, name, argv, out):
        """Run one stage; (wall s, peak RSS MB), or None when it failed."""
        log = out + f".{name}.log"
        code, wall, rss = run_process(argv, log, self.env,
                                      max(1.0, self.time_left()))
        if code != 0:
            with open(log, errors="replace") as fh:
                tail = fh.read().strip().splitlines()[-1:]
            self.check(False, f"{name} exited {code}: {' '.join(tail)}")
            return None
        self.check(True, name)
        return wall, rss

    def cli(self, mode, out_json=os.devnull):
        """Command prefix of a stage: the plain CLI, or it under stage.py."""
        if mode is None:
            return [sys.executable, "-m", "bgmix.cli"]
        return [sys.executable, os.path.join(BENCH_DIR, "stage.py"), mode,
                out_json]

    def fit_args(self, chain_seed, out):
        wl = self.wl
        return ["fit", self.data, *wl.fit_flags, "--iters", str(wl.iters),
                "--burnin", str(wl.burnin), "--seed", str(chain_seed),
                "--out", out]

    def setup_probe(self, i):
        """Wall time of a fit process that exits once k-means init is done."""
        out = os.path.join(self.work, f"setup{i}")
        chain_seed, _ = rep_seeds(self.seed, self.wl, 0)
        res = self.stage("setup", self.cli("setup")
                         + self.fit_args(chain_seed, out), out)
        return None if res is None else res[0]

    def pipeline(self, rep, traced):
        """Run and check fit → identify → evaluate; its measurements."""
        wl = self.wl
        chain_seed, identify_seed = rep_seeds(self.seed, wl, rep)
        out = os.path.join(self.work, f"rep{rep}" + ("t" if traced else ""))
        os.makedirs(out)

        def at(name):
            return os.path.join(out, name)

        tool = "trace" if traced else None
        stages = [
            ("fit", self.cli("trace" if traced else "sweep", at("fit.json"))
             + self.fit_args(chain_seed, out)),
            ("identify", self.cli(tool, at("identify.json"))
             + ["identify", at("draws.csv"), *wl.identify_flags,
                "--seed", str(identify_seed), "--out", out]),
            ("evaluate", self.cli(tool, at("evaluate.json"))
             + ["evaluate", at("partition_map.csv"), self.data,
                "--label-col", TRUTH_COL, "--out", out]),
        ]
        wall, rss = {}, []
        for name, argv in stages:
            res = self.stage(name, argv, out)
            if res is None:
                return None
            wall[name] = res[0]
            rss.append(res[1])
        if not self.outputs_ok(out):
            return None

        log_lik = [float(v) for it, series, v in read_rows(at("trace.csv"))[1]
                   if series == "log_lik" and int(it) >= wl.burnin]
        ess = effective_sample_size(log_lik)
        m = {"fit_s": wall["fit"], "identify_s": wall["identify"],
             "pipeline_s": sum(wall.values()), "ess": ess,
             "ess_per_s": ess / wall["fit"], "peak_rss_mb": max(rss),
             "artifact_mb": sum(os.path.getsize(at(f))
                                for f in ARTIFACTS) / 1e6,
             "digests": {f: sha256(at(f)) for f in DIGESTED
                         if os.path.exists(at(f))}}
        if traced:
            dumps = []
            for name, _ in stages:
                with open(at(f"{name}.json")) as fh:
                    dumps.append(json.load(fh))
            m["layers"] = layer_metrics(dumps, wl.iters)
            m["missing"] = sorted({t for d in dumps for t in d["missing"]})
        else:
            with open(at("fit.json")) as fh:
                m["sweep_us"] = json.load(fh)["run_chain_s"] * 1e6 / wl.iters
        shutil.rmtree(out)
        return m

    def outputs_ok(self, out):
        """Check one repetition's files; every check counts as attempted."""
        wl, n = self.wl, len(self.truth)
        draws = draws_problems(os.path.join(out, "draws.csv"),
                               wl.stored_sweeps, n)
        ok = self.check(not draws, f"draws: {draws[:3]}")
        parts = ["partition_map.csv"] + (["partition_vi.csv"]
                                         if wl.has_vi else [])
        labels = {}
        for name in parts:
            path = os.path.join(out, name)
            problems = partition_problems(path, n)
            ok &= self.check(not problems, f"{name}: {problems}")
            if not problems:
                labels[name] = column(path, "label")
        if "partition_map.csv" in labels:
            ari = adjusted_rand(labels["partition_map.csv"], self.truth)
            with open(os.path.join(out, "metrics.json")) as fh:
                reported = json.load(fh)["ari"]
            ok &= self.check(abs(reported - ari) < 1e-9,
                             f"evaluate reports ARI {reported}, not {ari}")
        for name, lab in labels.items():
            ari = adjusted_rand(lab, self.truth)
            ok &= self.check(ari >= MIN_ARI,
                             f"{name}: ARI {ari:.4f} < {MIN_ARI}")
        return ok

    def measure(self, seconds, traced):
        """Repeat rounds of work for `seconds`.

        A round is SETUP_PER_ROUND set-up probes (untraced runs only), the
        untraced pipeline and, in traced runs, the traced pipeline with the
        same seeds. Returns (set-up times, untraced reps, traced reps).
        """
        setup, plain, tracked = [], [], []
        t0 = time.perf_counter()
        rep = 0
        while rep == 0 or (time.perf_counter() - t0 < seconds
                           and self.time_left() > RUN_LIMIT_S - 110):
            if not traced:
                setup += [self.setup_probe(rep * SETUP_PER_ROUND + i)
                          for i in range(SETUP_PER_ROUND)]
            a = self.pipeline(rep, traced=False)
            b = self.pipeline(rep, traced=True) if traced else None
            if a and b:
                self.check(a["digests"] == b["digests"],
                           f"rep {rep}: traced outputs differ")
            plain += [a] if a else []
            tracked += [b] if b else []
            rep += 1
        return [t for t in setup if t is not None], plain, tracked


def median_of(reps, key):
    values = [m[key] for m in reps]
    return statistics.median(values) if values else 0.0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "bgmix", "cli.py")):
        print(f"error: {root} is not a bgmix checkout (no src/bgmix/cli.py);"
              f" run from the repository root", file=sys.stderr)
        return 2

    wl = WORKLOADS[args.workload]
    work = os.path.join(root, ".bench_out",
                        f"{wl.name}-{args.seed}-{os.getpid()}")
    os.makedirs(work)
    try:
        bench = Bench(wl, args.seed, root, work)
        setup, reps, traced = bench.measure(args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass                # another run is still using it

    for i, m in enumerate(reps):
        print(f"rep {i}: fit {m['fit_s']:.3f} s (sweep {m['sweep_us']:.1f} "
              f"us), identify {m['identify_s']:.3f} s, pipeline "
              f"{m['pipeline_s']:.3f} s, ESS {m['ess']:.1f}, peak RSS "
              f"{m['peak_rss_mb']:.1f} MB, artifacts {m['artifact_mb']:.3f} "
              f"MB")
    print("setup " + " ".join(f"{t:.4f} s" for t in setup))
    print("digests " + json.dumps([m["digests"] for m in reps]))
    for failure in bench.failures:
        print(f"check failed: {failure}", file=sys.stderr)
    failed = len(bench.failures)
    error_rate = failed / bench.attempted
    print(f"error_rate {error_rate:.6f} ({failed} of {bench.attempted} "
          f"stage runs and output checks failed)")

    values = {key: median_of(reps, key) for key in
              ("fit_s", "sweep_us", "identify_s", "pipeline_s", "ess",
               "ess_per_s", "peak_rss_mb", "artifact_mb")}
    if args.trace:
        layers = [m["layers"] for m in traced]
        values.update({key: median_of(layers, key) for key in PER_LAYER
                       if layers and key in layers[0]})
        values["trace.overhead_sweep_us"] = (values.get("trace.sweep_us", 0.0)
                                             - values["sweep_us"])
        values["sampler.log_lik.ess"] = values["ess"]
        values["sampler.log_lik.ess_per_s"] = values["ess_per_s"]
        missing = sorted({t for m in traced for t in m["missing"]})
        if missing:
            print(f"not traced (absent from the program): "
                  f"{', '.join(missing)}")
        units = PER_LAYER
    else:
        values["setup_s"] = statistics.median(setup) if setup else 0.0
        values["success_rate"] = 1.0 - error_rate
        units = END_TO_END
        # seed-dependent, so printed but not among the gated metrics
        print(f"{'ess_per_s':58s} {values['ess_per_s']:14.6g} 1/s")
    # a metric no successful repetition measured reads 0
    metrics = {key: {"value": values.get(key, 0.0), "unit": unit}
               for key, unit in units.items()}
    for key, m in metrics.items():
        print(f"{key:58s} {m['value']:14.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": bench.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
