"""Command-line surface: fit chains, identify draws, evaluate partitions.

Subcommands
-----------
fit       run an MCMC chain on a CSV dataset and persist draws/trace/manifest
identify  post-process a draws file into summaries and point partitions
evaluate  score a partition file against reference labels

Each fit setting (flag and config key) is declared once, in _CONFIG_KEYS.
Exit codes: 0 success, 1 standard output closed early, 2 unreadable input,
3 invalid flag or config, 4 sampler failure, 5 identification failure.
"""

import argparse
import json
import os
import sys
import time
from dataclasses import replace

import numpy as np

from . import __version__
from .artifacts import (UnreadableInputError, _sha256, load_table,
                        parse_assignments, parse_draws, parse_partition,
                        write_assignments, write_cluster_summary, write_draws,
                        write_json, write_kplus_distribution, write_partition,
                        write_trace)
from .model import (ChainConfig, Dataset, DynamicGamma, FixedGamma, FixedK,
                    RandomK, build_default_prior)
from .postprocess import (EmptySelectionError, IdentificationError,
                          filter_to_kplus, kplus_distribution, map_partition,
                          posterior_summary, ppr_identify, vi_partition,
                          ari, confusion_and_mcr)
from .sampler import ChainOutput, SamplerError, run_chain


class ConfigError(RuntimeError):
    """Flags, config file, or their combination are invalid (exit 3)."""


_VERSIONS = f"bgmix {__version__} (numpy {np.__version__})"


# ---------------------------------------------------------------------------
# input handling


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
    labels when label_col is not given. A feature value that parses as
    nan or inf makes the file unreadable.
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
    for j in feat_idx:
        bad = np.flatnonzero(~np.isfinite(parsed[j]))
        if bad.size:
            raise UnreadableInputError(
                f"{path}: feature column {header[j]!r} has the non-finite "
                f"value {body[bad[0]][j]!r} in data row {bad[0] + 1}")

    y = np.column_stack([parsed[j] for j in feat_idx])
    labels = parsed[label_idx] if label_idx is not None else None
    return Dataset(y=y, feature_names=[header[j] for j in feat_idx],
                   true_labels=labels)


# ---------------------------------------------------------------------------
# configuration


# every mode, with the defaults that depend on it
_MODE_DEFAULTS = {"fixed-k": {"gamma": 1.0}, "sfm": {"k": 10, "gamma": 0.01},
                  "mfm": {"bnb": (1.0, 4.0, 3.0), "alpha": 0.5}}


def _is_number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _csv_list(text):
    return [tok.strip() for tok in text.split(",") if tok.strip()]


def _is_names(v):
    """One or more column names, as a list or as one comma-separated string."""
    names = _csv_list(v) if isinstance(v, str) else v
    return (isinstance(names, list) and len(names) > 0
            and all(isinstance(t, str) and t.strip() for t in names))


# (check of a value, what it wants, reader of a flag's text); a flag's value
# must pass the same check as a config-file value; on/off flags take no text
_STRING = (lambda v: isinstance(v, str), "a string", str)
_NUMBER = (_is_number, "a number", float)
_INTEGER = (lambda v: _is_number(v) and isinstance(v, int), "an integer", int)
_FLAG = (lambda v: isinstance(v, bool), "true or false", None)
_TRIPLE = (lambda v: (isinstance(v, list) and len(v) == 3
                      and all(map(_is_number, v))), "a list of three numbers",
           lambda text: [float(tok) for tok in _csv_list(text)])
_NAMES = (_is_names, "one or more column names", _csv_list)

# every fit setting: its default, the value it takes and its flag's help,
# in the order the manifest echoes them; a None default marks a setting
# without one or with a default that depends on the mode
_CONFIG_KEYS = {
    "data": (None, _STRING, "input CSV (header row required)"),
    "mode": ("fixed-k", _STRING, f"sampler mode: {', '.join(_MODE_DEFAULTS)}"),
    "k": (None, _INTEGER, "number of components, required for fixed-k"),
    "gamma": (None, _NUMBER, "Dirichlet parameter"),
    "alpha": (None, _NUMBER, "mfm Dirichlet parameter gamma_K = alpha/K"),
    "bnb": (None, _TRIPLE, "BNB prior parameters A,B,C on K-1"),
    "kmax": (100, _INTEGER, "mfm truncation"),
    "kinit": (10, _INTEGER, "mfm starting K"),
    "iters": (30000, _INTEGER, "MCMC sweeps"),
    "burnin": (5000, _INTEGER, "burn-in sweeps"),
    "thin": (1, _INTEGER, "store every n-th sweep"),
    "seed": (0, _INTEGER, "RNG seed"),
    "c": (2.5, _NUMBER, "prior degrees of freedom scale"),
    "phi": (0.75, _NUMBER, "prior covariance shrink factor"),
    "store_assignments": (True, _FLAG, "persist per-sweep assignments"),
    "permute": (False, _FLAG, "randomly permute the labels after each sweep"),
    "chains": (1, _INTEGER, "independent chains with seeds seed..seed+n-1"),
    "features": (None, _NAMES, "feature columns by name or index, A,B,..."),
    "label_col": (None, _STRING, "true-class column excluded from features"),
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
    expected_hash = None
    if isinstance(raw, dict) and "config_echo" in raw:
        expected_hash = raw.get("dataset_hash")
        raw = raw["config_echo"]
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    unknown = set(raw) - set(_CONFIG_KEYS)
    if unknown:
        raise ConfigError(f"{path}: unknown config keys: "
                          f"{', '.join(sorted(unknown))}")
    # null leaves a key unset, as if the file did not name it
    for name, value in raw.items():
        valid, wanted, _ = _CONFIG_KEYS[name][1]
        if value is not None and not valid(value):
            raise ConfigError(f"{path}: config key {name!r} must be "
                              f"{wanted}, not {json.dumps(value)}")
    if isinstance(raw.get("features"), str):
        raw["features"] = _csv_list(raw["features"])
    return raw, expected_hash


def _resolve_fit_config(args):
    """Merge CLI flags over config-file keys over mode defaults."""
    file_cfg, expected_hash = ({}, None)
    if args.config:
        file_cfg, expected_hash = _load_config_file(args.config)

    # the first of flag, file value and default that is set (not None)
    cfg = {name: next((v for v in (getattr(args, name), file_cfg.get(name))
                       if v is not None), default)
           for name, (default, *_) in _CONFIG_KEYS.items()}
    mode = cfg["mode"]
    if mode not in _MODE_DEFAULTS:
        raise ConfigError(f"unknown mode {mode!r} (choose from "
                          f"{', '.join(_MODE_DEFAULTS)})")
    if cfg["data"] is None:
        raise ConfigError("no input data file (positional argument or "
                          "config key 'data')")
    cfg["data"] = os.path.abspath(cfg["data"])

    if mode == "fixed-k" and cfg["k"] is None:
        raise ConfigError("fixed-k mode requires --k")
    if mode == "mfm" and None not in (cfg["gamma"], cfg["alpha"]):
        raise ConfigError("mfm mode takes --gamma or --alpha, not both")
    for name, default in _MODE_DEFAULTS[mode].items():
        # mfm's alpha default applies only when gamma is not given either
        if cfg[name] is None and (name != "alpha" or cfg["gamma"] is None):
            cfg[name] = default
    if cfg["chains"] < 1:
        raise ConfigError("--chains must be at least 1")
    return cfg, expected_hash


def _build_run(cfg):
    """Turn a resolved config dict into (dataset, prior, chain_config)."""
    data = load_dataset(cfg["data"], cfg["features"], cfg["label_col"])
    try:
        # sfm is fixed-k with other defaults; only mfm puts a prior on K
        if cfg["mode"] == "mfm":
            k_prior = RandomK(*cfg["bnb"], k_max=cfg["kmax"],
                              k_init=cfg["kinit"])
        else:
            k_prior = FixedK(cfg["k"])
        # the resolved config sets exactly one of gamma and alpha
        if cfg["gamma"] is not None:
            gamma_spec = FixedGamma(cfg["gamma"])
        else:
            gamma_spec = DynamicGamma(cfg["alpha"])
        prior = build_default_prior(data, c=cfg["c"], phi=cfg["phi"],
                                    gamma_spec=gamma_spec, k_prior=k_prior)
        chain_cfg = ChainConfig(n_iter=cfg["iters"], burn_in=cfg["burnin"],
                                seed=cfg["seed"], thinning=cfg["thin"],
                                store_assignments=cfg["store_assignments"],
                                permutation_step=cfg["permute"])
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return data, prior, chain_cfg


# ---------------------------------------------------------------------------
# fit


def _chain_suffix(i, chains):
    return f"_chain{i}" if chains > 1 else ""


def _fit_one(cfg, chain_idx, out_dir):
    """Run one chain of a resolved config and write its artifacts."""
    data, prior, base_cfg = _build_run(cfg)
    chain_cfg = replace(base_cfg, seed=base_cfg.seed + chain_idx)
    t0 = time.perf_counter()
    out = run_chain(data, prior, chain_cfg)
    wall_time = time.perf_counter() - t0
    suffix = _chain_suffix(chain_idx, cfg["chains"])
    paths = {"draws": os.path.join(out_dir, f"draws{suffix}.csv"),
             "trace": os.path.join(out_dir, f"trace{suffix}.csv")}
    write_draws(paths["draws"], out.records)
    write_trace(paths["trace"], out.trace)
    if chain_cfg.store_assignments:
        paths["assignments"] = os.path.join(out_dir,
                                            f"assignments{suffix}.csv")
        write_assignments(paths["assignments"], out.records)
    kplus_mode = int(np.bincount(out.records.K_plus).argmax())
    return {"paths": paths, "wall_time": wall_time,
            "n_records": len(out.records), "seed": chain_cfg.seed,
            "kplus_mode": kplus_mode}


def cmd_fit(args):
    cfg, expected_hash = _resolve_fit_config(args)
    os.makedirs(args.out, exist_ok=True)
    dataset_hash = _sha256(cfg["data"])
    if expected_hash is not None and expected_hash != dataset_hash:
        raise ConfigError(f"dataset hash mismatch: manifest expects "
                          f"{expected_hash}, {cfg['data']} has {dataset_hash}")

    if cfg["chains"] == 1:
        results = [_fit_one(cfg, 0, args.out)]
    else:
        # imported here: its import takes 15-20 ms a single chain need not pay
        from concurrent.futures import ProcessPoolExecutor
        workers = min(cfg["chains"], os.cpu_count() or 1)
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(_fit_one, cfg, i, args.out)
                       for i in range(cfg["chains"])]
            results = [f.result() for f in futures]

    manifest_path = os.path.join(args.out, "manifest.json")
    artifact_paths = {kind + _chain_suffix(i, cfg["chains"]): p
                      for i, res in enumerate(results)
                      for kind, p in res["paths"].items()}
    artifact_paths["manifest"] = manifest_path
    manifest = {"config_echo": cfg, "dataset_hash": dataset_hash,
                "seed": cfg["seed"], "artifact_paths": artifact_paths,
                "versions": _VERSIONS}
    write_json(manifest_path, manifest)

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
    return None


def cmd_identify(args):
    if args.vi_thin < 1:
        raise ConfigError(f"--vi-thin must be at least 1, not {args.vi_thin}")
    if args.seed < 0:
        raise ConfigError(f"--seed must be non-negative, not {args.seed}")
    chain = ChainOutput(records=parse_draws(args.draws))
    assignments_path = args.assignments or _default_assignments_path(args.draws)
    if assignments_path is not None:
        parse_assignments(assignments_path, chain.records)

    dist_kplus = kplus_distribution(chain)
    if args.kplus == "auto":
        kplus = int(np.bincount(chain.records.K_plus).argmax())
    else:
        try:
            kplus = int(args.kplus)
        except ValueError:
            raise ConfigError(f"--kplus must be 'auto' or an integer, "
                              f"got {args.kplus!r}") from None
        if kplus < 1:
            raise ConfigError(f"--kplus must be at least 1, not {kplus}")
    filtered = filter_to_kplus(chain, kplus)
    # only the assignments are read below; free the component columns
    S_all, chain = chain.records.S, None
    identified = ppr_identify(filtered, np.random.default_rng(args.seed))
    summary = posterior_summary(identified)

    os.makedirs(args.out, exist_ok=True)
    paths = {}

    def out(name):
        paths[name] = os.path.join(args.out, name + ".csv")
        return paths[name]

    write_kplus_distribution(out("kplus_distribution"), dist_kplus)
    write_cluster_summary(out("cluster_summary"), summary)

    if identified.S is None:
        raise IdentificationError(
            "no assignments stored with the draws; rerun fit with "
            "--store-assignments to extract partitions")
    part_map = map_partition(identified.S)
    write_partition(out("partition_map"), part_map.labels)
    if not args.no_vi:
        part_vi = vi_partition(S_all, thin_to=args.vi_thin)
        write_partition(out("partition_vi"), part_vi.labels)

    paths["manifest"] = os.path.join(args.out, "identify_manifest.json")
    write_json(paths["manifest"], {
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
          + " ".join(f"{'mean_' + str(d + 1):>10}"
                     for d in range(summary.mean_mu.shape[1])))
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


def _load_truth_labels(path, label_col):
    header, body = load_table(path)
    if len(header) == 1 and label_col is None:
        return np.array([row[0] for row in body])
    data = load_dataset(path, features=None, label_col=label_col)
    if data.true_labels is None:
        raise ConfigError(f"{path}: no label column found; use --label-col")
    return np.asarray(data.true_labels).astype(str)


def cmd_evaluate(args):
    est = parse_partition(args.partition)
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

    os.makedirs(args.out, exist_ok=True)
    metrics_path = os.path.join(args.out, "metrics.json")
    write_json(metrics_path, {
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


class _Parser(argparse.ArgumentParser):
    """Reports a bad command line as a ConfigError: exit 3, one line."""

    def error(self, message):
        raise ConfigError(message)


def _flag_reader(kind):
    """argparse type of a flag: read the text, then check it as in a file."""
    valid, wanted, read = kind

    def reader(text):
        try:
            value = read(text)
            if valid(value):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"must be {wanted}, not {text!r}")
    return reader


def _show(value):
    if isinstance(value, tuple):
        return ",".join(map(str, value))
    return ("off", "on")[value] if isinstance(value, bool) else str(value)


def _default_help(name, default):
    if default is not None:
        return f" (default {_show(default)})"
    by_mode = [f"{_show(d[name])} {mode}"
               for mode, d in _MODE_DEFAULTS.items() if name in d]
    return f" (default {', '.join(by_mode)})" if by_mode else ""


def build_parser():
    parser = _Parser(
        prog="bgmix",
        description="Bayesian Gaussian mixture clustering: fit chains, "
                    "identify draws, evaluate partitions.")
    sub = parser.add_subparsers(dest="command", required=True)

    fit = sub.add_parser("fit", help="run an MCMC chain on a CSV dataset")
    fit.add_argument("--config", help="JSON config or manifest of a run")
    # defaults stay None so that a flag left out defers to the config file
    for name, (default, kind, text) in _CONFIG_KEYS.items():
        text += _default_help(name, default)
        flag = "--" + name.replace("_", "-")
        if name == "data":
            fit.add_argument(name, nargs="?", help=text)
        elif kind is _FLAG:
            fit.add_argument(flag, action=argparse.BooleanOptionalAction,
                             help=text)
        else:
            fit.add_argument(flag, type=_flag_reader(kind), help=text)
    fit.set_defaults(func=cmd_fit)

    integer = _flag_reader(_INTEGER)
    ident = sub.add_parser("identify",
                           help="summaries and partitions from a draws file")
    ident.add_argument("draws", help="draws CSV from fit")
    ident.add_argument("--assignments",
                       help="assignments CSV (default: alongside draws)")
    ident.add_argument("--kplus", default="auto",
                       help="number of clusters to identify, or 'auto' for "
                            "the posterior mode")
    ident.add_argument("--seed", type=integer, default=0,
                       help="seed for the relabeling k-means")
    ident.add_argument("--no-vi", action="store_true",
                       help="skip the VI partition search")
    ident.add_argument("--vi-thin", type=integer, default=2000,
                       help="max sweeps entering the VI search")
    ident.set_defaults(func=cmd_identify)

    ev = sub.add_parser("evaluate",
                        help="score a partition against reference labels")
    ev.add_argument("partition", help="partition CSV (index,label)")
    ev.add_argument("truth", help="reference labels: single-column CSV or "
                                  "dataset with a label column")
    ev.add_argument("--label-col", dest="label_col",
                    help="label column in the truth file")
    ev.set_defaults(func=cmd_evaluate)

    for cmd in (fit, ident, ev):
        cmd.add_argument("--out", default=os.environ.get("BGMIX_OUT_DIR", "."),
                         help="output directory (default: $BGMIX_OUT_DIR "
                              "or .)")
    return parser


_EXIT_CODES = {UnreadableInputError: 2, ConfigError: 3, SamplerError: 4,
               EmptySelectionError: 5, IdentificationError: 5}


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # keep the flush at interpreter exit from raising again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except tuple(_EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for cls, code in _EXIT_CODES.items()
                    if isinstance(exc, cls))


if __name__ == "__main__":
    sys.exit(main())
