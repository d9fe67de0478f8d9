"""Span tracing from outside the program, and the per-layer metrics it yields.

A traced stage process replaces each layer's public functions, at the name
its caller looks up, with a wrapper that records a span (name, start, end,
parent) and a few work counters. Names bound by ``from ... import`` are
wrapped in the importing module as well, since patching only the defining
module would miss those calls. Spans stay in memory and are written out
when the stage ends; self times are computed afterwards.
"""

import importlib
import os
from collections import defaultdict
from time import perf_counter_ns

import numpy as np


# Counters take (tracer, args, kwargs, result) of one call.

def _density_evals(tracer, args, kwargs, result):
    tracer.counts["density_evals"] += result.size


def _sample_k_candidates(tracer, args, kwargs, result):
    state, prior = args[0], args[1]
    tracer.counts["sample_K_candidates"] += (prior.k_prior.k_max
                                             - state.K_plus + 1)


def _kmeans_points(tracer, args, kwargs, result):
    tracer.counts["kmeans_points"] += len(args[0])


def _written_mb(key):
    def count(tracer, args, kwargs, result):
        tracer.counts[key] += os.path.getsize(args[0]) / 1e6
    return count


def _filter_kept(tracer, args, kwargs, result):
    tracer.counts["filter_kept"] += len(result.sweep_indices)
    tracer.counts["filter_seen"] += len(args[0].records)


def _ppr_kept(tracer, args, kwargs, result):
    tracer.counts["ppr_kept"] += len(result.kept)
    tracer.counts["ppr_seen"] += len(args[0].sweep_indices)


def _vi_inputs(tracer, args, kwargs, result):
    # U is counted when the stage ends, so its cost lands in no span
    tracer.vi_inputs.append((args[0], kwargs.get("thin_to", 2000)))


# (module the caller looks the name up in, attribute, span name, counter)
TARGETS = [
    ("bgmix.cli", "cmd_fit", "cli.cmd_fit", None),
    ("bgmix.cli", "cmd_identify", "cli.cmd_identify", None),
    ("bgmix.cli", "cmd_evaluate", "cli.cmd_evaluate", None),
    ("bgmix.cli", "load_dataset", "cli.load_dataset", None),
    ("bgmix.cli", "write_draws", "cli.write_draws", _written_mb("draws_mb")),
    ("bgmix.cli", "write_assignments", "cli.write_assignments",
     _written_mb("assignments_mb")),
    ("bgmix.cli", "write_trace", "cli.write_trace", _written_mb("trace_mb")),
    ("bgmix.cli", "parse_draws", "cli.parse_draws", None),
    ("bgmix.cli", "parse_assignments", "cli.parse_assignments", None),
    ("bgmix.cli", "run_chain", "sampler.run_chain", None),
    ("bgmix.cli", "filter_to_kplus", "postprocess.filter_to_kplus",
     _filter_kept),
    ("bgmix.cli", "ppr_identify", "postprocess.ppr_identify", _ppr_kept),
    ("bgmix.cli", "posterior_summary", "postprocess.posterior_summary", None),
    ("bgmix.cli", "map_partition", "postprocess.map_partition", None),
    ("bgmix.cli", "vi_partition", "postprocess.vi_partition", _vi_inputs),
    ("bgmix.sampler", "init_from_kmeans", "sampler.init_from_kmeans", None),
    ("bgmix.sampler", "kmeans", "clustering.kmeans", _kmeans_points),
    ("bgmix.sampler", "step_classify", "sampler.step_classify", None),
    ("bgmix.sampler", "step_component_params",
     "sampler.step_component_params", None),
    ("bgmix.sampler", "step_hyper", "sampler.step_hyper", None),
    ("bgmix.sampler", "step_weights", "sampler.step_weights", None),
    ("bgmix.sampler", "step_sample_K", "sampler.step_sample_K",
     _sample_k_candidates),
    ("bgmix.sampler", "compact_filled", "sampler.compact_filled", None),
    ("bgmix.sampler", "step_add_empty", "sampler.step_add_empty", None),
    ("bgmix.sampler", "mixture_log_likelihood",
     "model.mixture_log_likelihood", None),
    ("bgmix.postprocess", "kmeans", "clustering.kmeans", _kmeans_points),
    ("bgmix.postprocess", "variation_of_information",
     "postprocess.variation_of_information", None),
    ("bgmix.distributions", "log_mvnormal_density_batch",
     "distributions.log_mvnormal_density_batch", _density_evals),
    ("bgmix.distributions", "sample_inv_wishart_batch",
     "distributions.sample_inv_wishart_batch", None),
    ("bgmix.distributions", "sample_mvnormal_batch",
     "distributions.sample_mvnormal_batch", None),
    ("bgmix.distributions", "sample_wishart", "distributions.sample_wishart",
     None),
    ("bgmix.distributions", "sample_dirichlet",
     "distributions.sample_dirichlet", None),
    ("bgmix.distributions", "bnb_log_pmf", "distributions.bnb_log_pmf", None),
]


class Tracer:
    """In-memory span recorder; one per traced process."""

    def __init__(self):
        self.names = []
        self.spans = []           # [name id, parent span index, start, end]
        self.counts = defaultdict(float)
        self.vi_inputs = []
        self.missing = []
        self._stack = []

    def wrap(self, name, fn, count=None):
        if name not in self.names:
            self.names.append(name)
        name_id = self.names.index(name)
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = [name_id, stack[-1] if stack else -1, 0, 0]
            stack.append(len(spans))
            spans.append(span)
            span[2] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = perf_counter_ns()
                stack.pop()
            if count is not None:
                count(self, args, kwargs, result)
            return result

        return traced

    def install(self):
        """Wrap every target; a target the program lacks is only noted."""
        for module_name, attr, name, count in TARGETS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            setattr(module, attr, self.wrap(name, fn, count))

    def dump(self):
        """JSON-ready record of every span and counter."""
        counts = dict(self.counts)
        counts["vi_candidates"] = sum(vi_candidate_count(S, thin_to)
                                      for S, thin_to in self.vi_inputs)
        return {"names": self.names, "spans": self.spans, "counts": counts,
                "missing": self.missing}


def vi_candidate_count(S, thin_to):
    """Distinct partitions among the evenly thinned sweeps (U)."""
    S = np.asarray(S)
    if S.shape[0] > thin_to:
        S = S[np.linspace(0, S.shape[0] - 1, thin_to).astype(int)]
    canon = np.empty_like(S)
    for t, row in enumerate(S):
        # relabel by order of first appearance, so equal partitions match
        _, first, inverse = np.unique(row, return_index=True,
                                      return_inverse=True)
        rank = np.empty(first.size, dtype=S.dtype)
        rank[np.argsort(first)] = np.arange(first.size)
        canon[t] = rank[inverse]
    return int(np.unique(canon, axis=0).shape[0])


def self_times(spans):
    """Each span's duration minus the part of it its child spans cover."""
    children = defaultdict(list)
    for idx, span in enumerate(spans):
        if span[1] >= 0:
            children[span[1]].append(idx)
    out = []
    for idx, (_, _, lo, hi) in enumerate(spans):
        covered, reach = 0, lo
        for c in sorted(children[idx], key=lambda c: spans[c][2]):
            a, b = max(spans[c][2], reach), min(spans[c][3], hi)
            if b > a:
                covered += b - a
                reach = b
        out.append(hi - lo - covered)
    return out


# per-layer metric name -> unit; the traced run reports exactly these. The
# last four come from the untraced repetitions of the same run.
PER_LAYER = {
    "distributions.log_mvnormal_density_batch.us": "us",
    "distributions.log_mvnormal_density_batch.calls_per_sweep": "count",
    "distributions.density_evals_per_sweep": "count",
    "sampler.step_classify.us": "us",
    "sampler.step_component_params.us": "us",
    "sampler.step_hyper.us": "us",
    "sampler.step_weights.us": "us",
    "model.mixture_log_likelihood.us": "us",
    "sampler.run_chain.us": "us",
    "sampler.sweep.us_p50": "us",
    "sampler.sweep.us_p99": "us",
    "sampler.step_sample_K.us": "us",
    "sampler.step_sample_K.candidates": "count",
    "sampler.compact_filled.us": "us",
    "sampler.step_add_empty.us": "us",
    "distributions.sample_inv_wishart_batch.us": "us",
    "distributions.sample_mvnormal_batch.us": "us",
    "distributions.sample_wishart.us": "us",
    "distributions.sample_dirichlet.us": "us",
    "distributions.bnb_log_pmf.us": "us",
    "sampler.init_from_kmeans.s": "s",
    "clustering.kmeans.s": "s",
    "clustering.kmeans.calls": "count",
    "clustering.kmeans.points": "count",
    "cli.write_draws.s": "s",
    "cli.write_assignments.s": "s",
    "cli.write_trace.s": "s",
    "cli.write_draws.mb": "MB",
    "cli.write_assignments.mb": "MB",
    "cli.write_trace.mb": "MB",
    "cli.parse_draws.s": "s",
    "cli.parse_assignments.s": "s",
    "cli.load_dataset.s": "s",
    "postprocess.filter_to_kplus.s": "s",
    "postprocess.filter_to_kplus.kept_ratio": "ratio",
    "postprocess.ppr_identify.s": "s",
    "postprocess.ppr_identify.kept_ratio": "ratio",
    "postprocess.map_partition.s": "s",
    "postprocess.posterior_summary.s": "s",
    "postprocess.vi_partition.s": "s",
    "postprocess.vi_partition.candidates": "count",
    "postprocess.variation_of_information.calls": "count",
    "cli.cmd_fit.s": "s",
    "cli.cmd_identify.s": "s",
    "cli.cmd_evaluate.s": "s",
    "trace.sweep_us": "us",
    "trace.overhead_sweep_us": "us",
    "sampler.log_lik.ess": "count",
    "sampler.log_lik.ess_per_s": "1/s",
}


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(dumps, sweeps):
    """Per-layer metrics of one traced pipeline from its stage dumps.

    ``.us`` metrics are self time per sweep, ``.s`` self time over the
    pipeline; counters are summed over the stage processes.
    ``trace.overhead_sweep_us`` needs the untraced run and is left out.
    """
    self_ns = defaultdict(int)
    total_ns = defaultdict(int)
    calls = defaultdict(int)
    counts = defaultdict(float)
    classify_starts = []
    for dump in dumps:
        names, spans = dump["names"], dump["spans"]
        for (name_id, _, lo, hi), own in zip(spans, self_times(spans)):
            name = names[name_id]
            self_ns[name] += own
            total_ns[name] += hi - lo
            calls[name] += 1
            if name == "sampler.step_classify":
                classify_starts.append(lo)
        for key, v in dump["counts"].items():
            counts[key] += v

    out = {}
    for metric, unit in PER_LAYER.items():
        layer, suffix = metric.rsplit(".", 1)
        if suffix == "us":
            out[metric] = self_ns[layer] / 1e3 / sweeps
        elif suffix == "s":
            out[metric] = self_ns[layer] / 1e9
    gaps = np.diff(classify_starts) / 1e3
    for q in (50, 99):
        out[f"sampler.sweep.us_p{q}"] = (float(np.percentile(gaps, q))
                                         if gaps.size else 0.0)
    density = "distributions.log_mvnormal_density_batch"
    out[density + ".calls_per_sweep"] = calls[density] / sweeps
    out["distributions.density_evals_per_sweep"] = (counts["density_evals"]
                                                    / sweeps)
    out["sampler.step_sample_K.candidates"] = _ratio(
        counts["sample_K_candidates"], calls["sampler.step_sample_K"])
    out["clustering.kmeans.calls"] = float(calls["clustering.kmeans"])
    out["clustering.kmeans.points"] = counts["kmeans_points"]
    for kind in ("draws", "assignments", "trace"):
        out[f"cli.write_{kind}.mb"] = counts[f"{kind}_mb"]
    out["postprocess.filter_to_kplus.kept_ratio"] = _ratio(
        counts["filter_kept"], counts["filter_seen"])
    out["postprocess.ppr_identify.kept_ratio"] = _ratio(
        counts["ppr_kept"], counts["ppr_seen"])
    out["postprocess.vi_partition.candidates"] = counts["vi_candidates"]
    out["postprocess.variation_of_information.calls"] = float(
        calls["postprocess.variation_of_information"])
    out["trace.sweep_us"] = total_ns["sampler.run_chain"] / 1e3 / sweeps
    return out
