"""Run one bgmix CLI stage in this process with benchmark timers installed.

    python3 bench/stage.py MODE OUT_JSON CLI_ARGS...

MODE is one of
  sweep  time the run_chain call and nothing else (untraced fit),
  setup  exit as soon as init_from_kmeans returns (set-up probe),
  trace  record spans around every layer's public functions.

The stage itself is ``bgmix.cli.main(CLI_ARGS)``, what ``python -m
bgmix.cli`` runs; the timings go to OUT_JSON. ``src`` must be on
PYTHONPATH.
"""

import json
import os
import sys
import time

import bgmix.cli
import bgmix.sampler


def _time_run_chain(record):
    inner = bgmix.cli.run_chain

    def run_chain(*args, **kwargs):
        t0 = time.perf_counter()
        try:
            return inner(*args, **kwargs)
        finally:
            record["run_chain_s"] = time.perf_counter() - t0

    bgmix.cli.run_chain = run_chain


def _exit_after_init():
    inner = bgmix.sampler.init_from_kmeans

    def init_from_kmeans(*args, **kwargs):
        inner(*args, **kwargs)
        sys.stdout.flush()
        os._exit(0)

    bgmix.sampler.init_from_kmeans = init_from_kmeans


def main(argv):
    mode, out_json, cli_args = argv[0], argv[1], argv[2:]
    record, tracer = {}, None
    if mode == "sweep":
        _time_run_chain(record)
    elif mode == "setup":
        _exit_after_init()
    elif mode == "trace":
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    code = bgmix.cli.main(cli_args)
    if mode == "setup":
        print("error: the stage ended without calling init_from_kmeans",
              file=sys.stderr)
        return code or 3
    if tracer is not None:
        record = tracer.dump()
    with open(out_json, "w") as fh:
        json.dump(record, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
