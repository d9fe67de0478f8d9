"""Command-line surface: fit chains, identify draws, evaluate partitions.

Subcommands
-----------
fit       run an MCMC chain on a CSV dataset and persist draws/trace/manifest
identify  post-process a draws file into summaries and point partitions
evaluate  score a partition file against reference labels

Exit codes: 0 success, 2 unreadable input, 3 configuration error,
4 sampler failure, 5 identification failure.
"""

import argparse
import csv
import hashlib
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
from scipy import __version__ as _scipy_version

from . import __version__
from .model import (ChainConfig, Dataset, DynamicGamma, FixedGamma, FixedK,
                    RandomK, build_default_prior)
from .postprocess import (EmptySelectionError, IdentificationError,
                          filter_to_kplus, kplus_distribution, map_partition,
                          posterior_summary, ppr_identify, vi_partition,
                          ari, confusion_and_mcr)
from .sampler import SamplerError, SweepRecord, run_chain


class UnreadableInputError(RuntimeError):
    """Input file missing, malformed, or misaligned (exit 2)."""


class ConfigError(RuntimeError):
    """Flags, config file, or their combination are invalid (exit 3)."""


_VERSIONS = f"bgmix {__version__} (numpy {np.__version__}, scipy {_scipy_version})"


# ---------------------------------------------------------------------------
# input handling


def _sha256(path):
    h = hashlib.sha256()
    try:
        with open(path, "rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 16), b""):
                h.update(chunk)
    except OSError as exc:
        raise UnreadableInputError(f"cannot read {path}: {exc}") from exc
    return h.hexdigest()


def load_table(path):
    """Read a CSV with one header row into (header, rows of strings)."""
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            rows = [row for row in reader if row]
    except OSError as exc:
        raise UnreadableInputError(f"cannot read {path}: {exc}") from exc
    if len(rows) < 2:
        raise UnreadableInputError(f"{path}: need a header row and data rows")
    header = [c.strip() for c in rows[0]]
    body = []
    for lineno, row in enumerate(rows[1:], start=2):
        if len(row) != len(header):
            raise UnreadableInputError(
                f"{path}: line {lineno} has {len(row)} fields, "
                f"expected {len(header)}")
        body.append([c.strip() for c in row])
    return header, body


def _resolve_column(token, header, path):
    if token in header:
        return header.index(token)
    if token.lstrip("-").isdigit():
        idx = int(token)
        if -len(header) <= idx < len(header):
            return idx % len(header)
    raise ConfigError(f"column {token!r} not found in {path} "
                      f"(columns: {', '.join(header)})")


def load_dataset(path, features=None, label_col=None):
    """Build a Dataset from a CSV, separating features from a label column.

    Feature columns may be named explicitly; otherwise every numeric
    column is used. A single non-numeric column is taken as the true
    labels when label_col is not given.
    """
    header, body = load_table(path)
    ncol = len(header)
    parsed = []
    numeric = []
    for j in range(ncol):
        col = [row[j] for row in body]
        try:
            parsed.append(np.array([float(v) for v in col]))
            numeric.append(True)
        except ValueError:
            parsed.append(np.array(col, dtype=object))
            numeric.append(False)

    label_idx = None
    if label_col is not None:
        label_idx = _resolve_column(label_col, header, path)
    else:
        non_numeric = [j for j in range(ncol) if not numeric[j]]
        if len(non_numeric) == 1:
            label_idx = non_numeric[0]
        elif len(non_numeric) > 1 and features is None:
            names = ", ".join(header[j] for j in non_numeric)
            raise ConfigError(f"{path}: multiple non-numeric columns ({names}); "
                              f"use --features or --label-col")

    if features is not None:
        feat_idx = [_resolve_column(tok, header, path) for tok in features]
        for j in feat_idx:
            if not numeric[j]:
                raise ConfigError(f"feature column {header[j]!r} in {path} "
                                  f"is not numeric")
    else:
        feat_idx = [j for j in range(ncol) if numeric[j] and j != label_idx]
    if not feat_idx:
        raise UnreadableInputError(f"{path}: no numeric feature columns")

    y = np.column_stack([parsed[j] for j in feat_idx])
    labels = parsed[label_idx] if label_idx is not None else None
    return Dataset(y=y, feature_names=[header[j] for j in feat_idx],
                   true_labels=labels)


# ---------------------------------------------------------------------------
# configuration


_MODES = ("fixed-k", "sfm", "mfm")

_CONFIG_KEYS = {
    "data", "mode", "k", "gamma", "alpha", "bnb", "kmax", "kinit", "iters",
    "burnin", "thin", "seed", "c", "phi", "store_assignments", "permute",
    "chains", "features", "label_col",
}


def _load_config_file(path):
    """Read a config JSON; a run manifest is accepted and unwrapped."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise UnreadableInputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    expected_hash = None
    if "config_echo" in raw:
        expected_hash = raw.get("dataset_hash")
        raw = raw["config_echo"]
    unknown = set(raw) - _CONFIG_KEYS
    if unknown:
        raise ConfigError(f"{path}: unknown config keys: "
                          f"{', '.join(sorted(unknown))}")
    return raw, expected_hash


def _resolve_fit_config(args):
    """Merge CLI flags over config-file keys over mode defaults."""
    file_cfg, expected_hash = ({}, None)
    if args.config:
        file_cfg, expected_hash = _load_config_file(args.config)

    def pick(name, default=None):
        cli = getattr(args, name)
        if cli is not None:
            return cli
        if name in file_cfg and file_cfg[name] is not None:
            return file_cfg[name]
        return default

    mode = pick("mode", "fixed-k")
    if mode not in _MODES:
        raise ConfigError(f"unknown mode {mode!r} (choose from "
                          f"{', '.join(_MODES)})")
    cfg = {
        "data": pick("data"),
        "mode": mode,
        "k": pick("k"),
        "gamma": pick("gamma"),
        "alpha": pick("alpha"),
        "bnb": pick("bnb"),
        "kmax": pick("kmax", 100),
        "kinit": pick("kinit", 10),
        "iters": pick("iters", 30000),
        "burnin": pick("burnin", 5000),
        "thin": pick("thin", 1),
        "seed": pick("seed", 0),
        "c": pick("c", 2.5),
        "phi": pick("phi", 0.75),
        "store_assignments": pick("store_assignments", True),
        "permute": pick("permute", False),
        "chains": pick("chains", 1),
        "features": pick("features"),
        "label_col": pick("label_col"),
    }
    if cfg["data"] is None:
        raise ConfigError("no input data file (positional argument or "
                          "config key 'data')")
    cfg["data"] = os.path.abspath(cfg["data"])

    if mode == "fixed-k":
        if cfg["k"] is None:
            raise ConfigError("fixed-k mode requires --k")
        if cfg["gamma"] is None:
            cfg["gamma"] = 1.0
    elif mode == "sfm":
        if cfg["k"] is None:
            cfg["k"] = 10
        if cfg["gamma"] is None:
            cfg["gamma"] = 0.01
    else:
        if cfg["bnb"] is None:
            cfg["bnb"] = [1.0, 4.0, 3.0]
        if len(cfg["bnb"]) != 3:
            raise ConfigError("--bnb needs three comma-separated values")
        if cfg["gamma"] is not None and cfg["alpha"] is not None:
            raise ConfigError("mfm mode takes --gamma or --alpha, not both")
        if cfg["gamma"] is None and cfg["alpha"] is None:
            cfg["alpha"] = 0.5
    if cfg["chains"] < 1:
        raise ConfigError("--chains must be at least 1")
    return cfg, expected_hash


def _build_run(cfg):
    """Turn a resolved config dict into (dataset, prior, chain_config)."""
    data = load_dataset(cfg["data"], cfg["features"], cfg["label_col"])
    try:
        # sfm is fixed-k with other defaults; only mfm puts a prior on K
        if cfg["mode"] == "mfm":
            a_l, a_pi, b_pi = cfg["bnb"]
            k_prior = RandomK(a_l, a_pi, b_pi, k_max=int(cfg["kmax"]),
                              k_init=int(cfg["kinit"]))
        else:
            k_prior = FixedK(int(cfg["k"]))
        # the resolved config sets exactly one of gamma and alpha
        if cfg["gamma"] is not None:
            gamma_spec = FixedGamma(cfg["gamma"])
        else:
            gamma_spec = DynamicGamma(cfg["alpha"])
        prior = build_default_prior(data, c=cfg["c"], phi=cfg["phi"],
                                    gamma_spec=gamma_spec, k_prior=k_prior)
        chain_cfg = ChainConfig(n_iter=int(cfg["iters"]),
                                burn_in=int(cfg["burnin"]),
                                seed=int(cfg["seed"]),
                                store_assignments=cfg["store_assignments"],
                                permutation_step=cfg["permute"],
                                thinning=int(cfg["thin"]))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return data, prior, chain_cfg


# ---------------------------------------------------------------------------
# persistence


def _fmt(v):
    return repr(float(v))


def write_draws(path, records, r):
    """One row per stored sweep; rows carry their own K, header spans max K."""
    kmax = max(rec.K for rec in records)
    il, jl = np.tril_indices(r)
    header = ["iter", "K", "K_plus"]
    header += [f"eta_{k+1}" for k in range(kmax)]
    header += [f"mu_{k+1}_{d+1}" for k in range(kmax) for d in range(r)]
    header += [f"sigma_{k+1}_{i+1}_{j+1}" for k in range(kmax)
               for i, j in zip(il, jl)]
    header += [f"N_{k+1}" for k in range(kmax)]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for rec in records:
            row = [rec.iter, rec.K, rec.K_plus]
            row += [_fmt(v) for v in rec.eta]
            row += [_fmt(v) for v in rec.mu.ravel()]
            row += [_fmt(v) for v in rec.Sigma[:, il, jl].ravel()]
            row += [int(v) for v in rec.N_k]
            writer.writerow(row)


def write_assignments(path, records):
    n = records[0].S.size
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iter"] + [f"s_{i+1}" for i in range(n)])
        for rec in records:
            writer.writerow([rec.iter] + [int(v) + 1 for v in rec.S])


def write_trace(path, trace):
    """Long-format (iter, series, value) export of the per-iteration series."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iter", "series", "value"])
        n_iter = trace["log_lik"].size
        mu1 = trace.get("mu1")
        for it in range(n_iter):
            writer.writerow([it, "log_lik", _fmt(trace["log_lik"][it])])
            writer.writerow([it, "K", int(trace["K"][it])])
            writer.writerow([it, "K_plus", int(trace["K_plus"][it])])
            if mu1 is not None:
                for k in range(mu1.shape[1]):
                    writer.writerow([it, f"mu_{k+1}_1", _fmt(mu1[it, k])])


def _write_partition(path, labels):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["index", "label"])
        for i, lab in enumerate(labels, start=1):
            writer.writerow([i, int(lab)])


def _write_json_atomic(path, payload):
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    os.replace(tmp, path)


def parse_draws(path):
    """Read a draws file back into SweepRecord objects (assignments absent)."""
    header, body = None, []
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            for row in reader:
                if not row:
                    continue
                if header is None:
                    header = row
                else:
                    body.append(row)
    except OSError as exc:
        raise UnreadableInputError(f"cannot read {path}: {exc}") from exc
    if header is None or not body:
        raise UnreadableInputError(f"{path}: no draws found")
    if header[:3] != ["iter", "K", "K_plus"]:
        raise UnreadableInputError(f"{path}: not a draws file")
    r = sum(1 for name in header if name.startswith("mu_1_"))
    if r < 1:
        raise UnreadableInputError(f"{path}: no mu columns in header")
    il, jl = np.tril_indices(r)
    ntri = il.size
    records = []
    for row in body:
        it, K, kplus = int(row[0]), int(row[1]), int(row[2])
        need = 3 + K * (1 + r + ntri + 1)
        if len(row) < need:
            raise UnreadableInputError(
                f"{path}: row iter={it} has {len(row)} fields, "
                f"needs {need} for K={K}")
        pos = 3
        eta = np.array([float(v) for v in row[pos:pos + K]])
        pos += K
        mu = np.array([float(v) for v in row[pos:pos + K * r]]).reshape(K, r)
        pos += K * r
        tri = np.array([float(v) for v in row[pos:pos + K * ntri]])
        pos += K * ntri
        Sigma = np.zeros((K, r, r))
        Sigma[:, il, jl] = Sigma[:, jl, il] = tri.reshape(K, ntri)
        N_k = np.array([int(row[pos + k]) for k in range(K)])
        records.append(SweepRecord(iter=it, K=K, K_plus=kplus, eta=eta, mu=mu,
                                   Sigma=Sigma, N_k=N_k, S=None,
                                   log_lik=np.nan))
    return records


def parse_assignments(path, records):
    """Attach stored assignments to records, matching on iteration index."""
    header, body = load_table(path)
    if header[0] != "iter":
        raise UnreadableInputError(f"{path}: not an assignments file")
    by_iter = {}
    for row in body:
        by_iter[int(row[0])] = np.array([int(v) - 1 for v in row[1:]])
    missing = [rec.iter for rec in records if rec.iter not in by_iter]
    if missing:
        raise UnreadableInputError(
            f"{path}: no assignment row for iteration {missing[0]}")
    for rec in records:
        rec.S = by_iter[rec.iter]
    return records


# ---------------------------------------------------------------------------
# fit


def _chain_suffix(i, chains):
    return f"_chain{i}" if chains > 1 else ""


def _fit_one(cfg, chain_idx, out_dir):
    """Run one chain of a resolved config and write its artifacts."""
    data, prior, base_cfg = _build_run(cfg)
    chain_cfg = replace(base_cfg, seed=base_cfg.seed + chain_idx)
    out = run_chain(data, prior, chain_cfg)
    suffix = _chain_suffix(chain_idx, cfg["chains"])
    paths = {"draws": os.path.join(out_dir, f"draws{suffix}.csv"),
             "trace": os.path.join(out_dir, f"trace{suffix}.csv")}
    write_draws(paths["draws"], out.records, data.r)
    write_trace(paths["trace"], out.trace)
    if chain_cfg.store_assignments:
        paths["assignments"] = os.path.join(out_dir,
                                            f"assignments{suffix}.csv")
        write_assignments(paths["assignments"], out.records)
    kplus_mode = max(kplus_distribution(out).items(),
                     key=lambda kv: (kv[1], -kv[0]))[0]
    return {"paths": paths, "wall_time": out.wall_time,
            "n_records": len(out.records), "seed": chain_cfg.seed,
            "kplus_mode": kplus_mode}


def cmd_fit(args):
    cfg, expected_hash = _resolve_fit_config(args)
    out_dir = args.out
    os.makedirs(out_dir, exist_ok=True)
    dataset_hash = _sha256(cfg["data"])
    if expected_hash is not None and expected_hash != dataset_hash:
        raise ConfigError(f"dataset hash mismatch: manifest expects "
                          f"{expected_hash}, {cfg['data']} has {dataset_hash}")

    results = []
    if cfg["chains"] == 1:
        results.append(_fit_one(cfg, 0, out_dir))
    else:
        workers = min(cfg["chains"], os.cpu_count() or 1)
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(_fit_one, cfg, i, out_dir)
                       for i in range(cfg["chains"])]
            results = [f.result() for f in futures]

    manifest_path = os.path.join(out_dir, "manifest.json")
    artifact_paths = {}
    for i, res in enumerate(results):
        suffix = _chain_suffix(i, cfg["chains"])
        for kind, p in res["paths"].items():
            artifact_paths[f"{kind}{suffix}"] = p
    artifact_paths["manifest"] = manifest_path
    manifest = {"config_echo": cfg, "dataset_hash": dataset_hash,
                "seed": cfg["seed"], "artifact_paths": artifact_paths,
                "versions": _VERSIONS}
    _write_json_atomic(manifest_path, manifest)

    for res in results:
        print(f"chain seed {res['seed']}: {res['n_records']} stored sweeps, "
              f"K+ mode {res['kplus_mode']}, {res['wall_time']:.1f}s")
    print(f"draws: {', '.join(res['paths']['draws'] for res in results)}")
    print(f"manifest: {manifest_path}")
    return 0


# ---------------------------------------------------------------------------
# identify


def _default_assignments_path(draws_path):
    d, base = os.path.split(draws_path)
    if base.startswith("draws"):
        cand = os.path.join(d, "assignments" + base[len("draws"):])
        if os.path.exists(cand):
            return cand
    cand = os.path.join(d, "assignments.csv")
    return cand if os.path.exists(cand) else None


def cmd_identify(args):
    if args.vi_thin < 1:
        raise ConfigError(f"--vi-thin must be at least 1, not {args.vi_thin}")
    records = parse_draws(args.draws)
    assignments_path = args.assignments or _default_assignments_path(args.draws)
    if assignments_path is not None:
        parse_assignments(assignments_path, records)
    chain = SimpleNamespace(records=records)

    dist_kplus = kplus_distribution(chain)
    if args.kplus == "auto":
        kplus = max(dist_kplus.items(), key=lambda kv: (kv[1], -kv[0]))[0]
    else:
        try:
            kplus = int(args.kplus)
        except ValueError:
            raise ConfigError(f"--kplus must be 'auto' or an integer, "
                              f"got {args.kplus!r}") from None
    filtered = filter_to_kplus(chain, kplus)
    identified = ppr_identify(filtered, np.random.default_rng(args.seed))
    summary = posterior_summary(identified)

    out_dir = args.out
    os.makedirs(out_dir, exist_ok=True)
    paths = {"kplus_distribution": os.path.join(out_dir,
                                                "kplus_distribution.csv"),
             "cluster_summary": os.path.join(out_dir, "cluster_summary.csv")}
    with open(paths["kplus_distribution"], "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["k_plus", "frequency"])
        for k, freq in dist_kplus.items():
            writer.writerow([k, _fmt(freq)])

    r = summary.mean_mu.shape[1]
    il, jl = np.tril_indices(r)
    with open(paths["cluster_summary"], "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["cluster", "mean_size", "mean_eta"]
                        + [f"mean_mu_{d+1}" for d in range(r)]
                        + [f"mean_sigma_{i+1}_{j+1}" for i, j in zip(il, jl)])
        for rank, k in enumerate(summary.report_order, start=1):
            writer.writerow([rank, _fmt(summary.mean_N_k[k]),
                             _fmt(summary.mean_eta[k])]
                            + [_fmt(v) for v in summary.mean_mu[k]]
                            + [_fmt(v) for v in summary.mean_Sigma[k, il, jl]])

    if identified.S is None:
        raise IdentificationError(
            "no assignments stored with the draws; rerun fit with "
            "--store-assignments to extract partitions")
    part_map = map_partition(identified.S)
    paths["partition_map"] = os.path.join(out_dir, "partition_map.csv")
    _write_partition(paths["partition_map"], part_map.labels)

    if not args.no_vi:
        S_all = np.array([rec.S for rec in records])
        part_vi = vi_partition(S_all, thin_to=args.vi_thin)
        paths["partition_vi"] = os.path.join(out_dir, "partition_vi.csv")
        _write_partition(paths["partition_vi"], part_vi.labels)

    manifest_path = os.path.join(out_dir, "identify_manifest.json")
    paths["manifest"] = manifest_path
    _write_json_atomic(manifest_path, {
        "draws": os.path.abspath(args.draws),
        "assignments": (os.path.abspath(assignments_path)
                        if assignments_path else None),
        "seed": args.seed,
        "k_plus": kplus,
        "kplus_distribution": {str(k): v for k, v in dist_kplus.items()},
        "non_permutation_rate": identified.non_permutation_rate,
        "artifact_paths": paths,
        "versions": _VERSIONS,
    })

    print("K+ distribution: "
          + ", ".join(f"{k}: {v:.4f}" for k, v in dist_kplus.items()))
    print(f"selected K+ = {kplus}")
    print(f"non-permutation rate: {identified.non_permutation_rate:.5f}")
    print(f"{'cluster':>8} {'size':>8} {'weight':>8} "
          + " ".join(f"{'mean_' + str(d + 1):>10}" for d in range(r)))
    for rank, k in enumerate(summary.report_order, start=1):
        print(f"{rank:>8} {summary.mean_N_k[k]:>8.2f} "
              f"{summary.mean_eta[k]:>8.3f} "
              + " ".join(f"{v:>10.2f}" for v in summary.mean_mu[k]))
    print(f"summary: {paths['cluster_summary']}")
    print(f"MAP partition: {paths['partition_map']}")
    if "partition_vi" in paths:
        print(f"VI partition: {paths['partition_vi']}")
    return 0


# ---------------------------------------------------------------------------
# evaluate


def _load_partition_labels(path):
    header, body = load_table(path)
    if "label" in header:
        j = header.index("label")
    elif len(header) == 1:
        j = 0
    else:
        j = len(header) - 1
    return np.array([row[j] for row in body])


def _load_truth_labels(path, label_col):
    header, body = load_table(path)
    if len(header) == 1 and label_col is None:
        return np.array([row[0] for row in body])
    data = load_dataset(path, features=None, label_col=label_col)
    if data.true_labels is None:
        raise ConfigError(f"{path}: no label column found; use --label-col")
    return np.asarray(data.true_labels).astype(str)


def cmd_evaluate(args):
    est = _load_partition_labels(args.partition)
    truth = _load_truth_labels(args.truth, args.label_col)
    if est.size != truth.size:
        raise UnreadableInputError(
            f"row mismatch: {args.partition} has {est.size} rows, "
            f"{args.truth} has {truth.size}")
    score = ari(est, truth)
    result = confusion_and_mcr(est, truth)

    width = max([len(str(v)) for v in result.row_labels] + [6])
    print(f"ARI: {score:.4f}")
    print(f"MCR: {result.mcr:.4f}")
    header_cells = " ".join(f"{str(c):>6}" for c in result.col_labels)
    print(f"{'':>{width}} {header_cells}")
    for lab, row in zip(result.row_labels, result.table):
        cells = " ".join(f"{int(v):>6}" for v in row)
        print(f"{str(lab):>{width}} {cells}")

    out_dir = args.out
    os.makedirs(out_dir, exist_ok=True)
    metrics_path = os.path.join(out_dir, "metrics.json")
    _write_json_atomic(metrics_path, {
        "ari": score,
        "mcr": result.mcr,
        "confusion": result.table.tolist(),
        "row_labels": [str(v) for v in result.row_labels],
        "col_labels": [str(v) for v in result.col_labels],
        "partition": os.path.abspath(args.partition),
        "truth": os.path.abspath(args.truth),
        "versions": _VERSIONS,
    })
    print(f"metrics: {metrics_path}")
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def _default_out():
    return os.environ.get("BGMIX_OUT_DIR", ".")


def _csv_list(text):
    return [tok.strip() for tok in text.split(",") if tok.strip()]


def _csv_floats(text):
    try:
        return [float(tok) for tok in _csv_list(text)]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated float list: "
                                         f"{text!r}") from None


def build_parser():
    parser = argparse.ArgumentParser(
        prog="bgmix",
        description="Bayesian Gaussian mixture clustering: fit chains, "
                    "identify draws, evaluate partitions.")
    sub = parser.add_subparsers(dest="command", required=True)

    fit = sub.add_parser("fit", help="run an MCMC chain on a CSV dataset")
    fit.add_argument("data", nargs="?", help="input CSV (header row required)")
    fit.add_argument("--config", help="JSON config or manifest from a "
                                      "previous run")
    fit.add_argument("--out", default=_default_out(),
                     help="output directory (default: $BGMIX_OUT_DIR or .)")
    fit.add_argument("--mode", choices=sorted(_MODES),
                     help="sampler mode (default fixed-k)")
    fit.add_argument("--k", type=int, help="number of components (required "
                                           "for fixed-k; default 10 for sfm)")
    fit.add_argument("--gamma", type=float,
                     help="Dirichlet parameter (default 1 fixed-k, 0.01 sfm)")
    fit.add_argument("--alpha", type=float,
                     help="mfm dynamic Dirichlet parameter gamma_K = alpha/K "
                          "(default 0.5)")
    fit.add_argument("--bnb", type=_csv_floats, metavar="A,B,C",
                     help="BNB prior parameters on K-1 (default 1,4,3)")
    fit.add_argument("--kmax", type=int, help="mfm truncation (default 100)")
    fit.add_argument("--kinit", type=int,
                     help="mfm starting K (default 10)")
    fit.add_argument("--iters", type=int, help="MCMC sweeps (default 30000)")
    fit.add_argument("--burnin", type=int, help="burn-in sweeps "
                                                "(default 5000)")
    fit.add_argument("--thin", type=int, help="store every n-th sweep "
                                              "(default 1)")
    fit.add_argument("--seed", type=int, help="RNG seed (default 0)")
    fit.add_argument("--c", type=float, dest="c",
                     help="prior degrees of freedom scale (default 2.5)")
    fit.add_argument("--phi", type=float,
                     help="prior covariance shrink factor (default 0.75)")
    fit.add_argument("--store-assignments", default=None,
                     action=argparse.BooleanOptionalAction,
                     help="persist per-sweep assignments (default on)")
    fit.add_argument("--permute", default=None,
                     action=argparse.BooleanOptionalAction,
                     help="append a random label permutation to each sweep")
    fit.add_argument("--chains", type=int,
                     help="independent chains with seeds seed..seed+n-1")
    fit.add_argument("--features", type=_csv_list,
                     help="feature columns by name or index (default: all "
                          "numeric)")
    fit.add_argument("--label-col", dest="label_col",
                     help="true-class column excluded from features")
    fit.set_defaults(func=cmd_fit)

    ident = sub.add_parser("identify",
                           help="summaries and partitions from a draws file")
    ident.add_argument("draws", help="draws CSV from fit")
    ident.add_argument("--assignments",
                       help="assignments CSV (default: alongside draws)")
    ident.add_argument("--out", default=_default_out(),
                       help="output directory (default: $BGMIX_OUT_DIR or .)")
    ident.add_argument("--kplus", default="auto",
                       help="number of clusters to identify, or 'auto' for "
                            "the posterior mode")
    ident.add_argument("--seed", type=int, default=0,
                       help="seed for the relabeling k-means")
    ident.add_argument("--no-vi", action="store_true",
                       help="skip the VI partition search")
    ident.add_argument("--vi-thin", type=int, default=2000,
                       help="max sweeps entering the VI search")
    ident.set_defaults(func=cmd_identify)

    ev = sub.add_parser("evaluate",
                        help="score a partition against reference labels")
    ev.add_argument("partition", help="partition CSV (index,label)")
    ev.add_argument("truth", help="reference labels: single-column CSV or "
                                  "dataset with a label column")
    ev.add_argument("--label-col", dest="label_col",
                    help="label column in the truth file")
    ev.add_argument("--out", default=_default_out(),
                    help="output directory (default: $BGMIX_OUT_DIR or .)")
    ev.set_defaults(func=cmd_evaluate)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except UnreadableInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except SamplerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (EmptySelectionError, IdentificationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
