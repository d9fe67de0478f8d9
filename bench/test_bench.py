"""Tests of the benchmark itself: its estimators, its tracer and its runs.

    python3 -m pytest bench -q

from the repository root. The smoke runs make one round of each workload,
untraced and traced, so the whole file takes a minute or two.
"""

import json
import os

import numpy as np
import pytest

import run
import workloads
from estimators import adjusted_rand, effective_sample_size
from tracer import PER_LAYER, self_times

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("rho", [0.0, 0.5, 0.9])
def test_ess_recovers_ar1_value(rho):
    n = 200_000
    rng = np.random.default_rng(7)
    eps = rng.standard_normal(n)
    x = np.empty(n)
    x[0] = eps[0] / np.sqrt(1 - rho ** 2)
    for t in range(1, n):
        x[t] = rho * x[t - 1] + eps[t]
    expected = n * (1 - rho) / (1 + rho)
    assert effective_sample_size(x) == pytest.approx(expected, rel=0.05)


def test_ess_of_constant_series_is_its_length():
    assert effective_sample_size(np.ones(50)) == 50


def test_self_time_is_duration_minus_child_coverage():
    # root [0, 100] holds a [10, 30] and b [40, 70]; b holds c [45, 50]
    spans = [[0, -1, 0, 100], [1, 0, 10, 30], [2, 0, 40, 70],
             [3, 2, 45, 50]]
    assert self_times(spans) == [100 - 20 - 30, 20, 30 - 5, 5]


def test_adjusted_rand_ignores_label_names():
    a = [1, 1, 2, 2, 3, 3]
    assert adjusted_rand(a, ["x", "x", "y", "y", "z", "z"]) == 1.0
    assert adjusted_rand(a, [1, 2, 1, 2, 1, 2]) < 0.0


def test_benchmark_json_matches_the_reported_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_synthetic_inputs_follow_the_seed(tmp_path):
    paths = [tmp_path / f"{i}.csv" for i in range(3)]
    for path, seed in zip(paths, (4, 4, 5)):
        workloads.write_synthetic(path, 200, 4, 5, 6.0, seed)
    texts = [p.read_text() for p in paths]
    assert texts[0] == texts[1] != texts[2]
    assert texts[0].splitlines()[0] == "x1,x2,x3,x4,x5,group"
    assert len(texts[0].splitlines()) == 201


def _bench(capsys, argv):
    code = run.main(argv)
    captured = capsys.readouterr()
    return code, captured.out.strip().splitlines(), captured.err


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_smoke_run_passes_its_checks(name, trace, monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    code, out, err = _bench(capsys, ["--workload", name, "--seed", "3",
                                     "--seconds", "0", "--trace", str(trace)])
    assert code == 0
    result = json.loads(out[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, err
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert set(metrics) == set(PER_LAYER if trace else run.END_TO_END)
    if not trace:
        assert all(v > 0 for v in metrics.values())
        return
    assert metrics["distributions.log_mvnormal_density_batch"
                   ".calls_per_sweep"] == 2.0
    U = metrics["postprocess.vi_partition.candidates"]
    assert metrics["postprocess.variation_of_information.calls"] == \
        U * (U - 1) / 2
    assert (U > 1) == workloads.WORKLOADS[name].has_vi
    assert (metrics["sampler.step_sample_K.us"] > 0) == (name ==
                                                         "synth-n150-mfm")


def test_refuses_to_run_outside_a_checkout(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code, out, _ = _bench(capsys, ["--workload", "synth-n4000", "--seed",
                                   "1", "--seconds", "1", "--trace", "0"])
    assert code != 0 and out == []
    assert not os.listdir(tmp_path)
