"""Every file format `fit`, `identify` and `evaluate` read or write.

Writers take the output path first and write ``path + ".tmp"``, which
replaces ``path`` only once complete. Floats are written as their repr,
so a draws file read back and written again is byte-identical.
"""

import csv
import hashlib
import json
import os
from contextlib import contextmanager

import numpy as np

from .sampler import Draws


class UnreadableInputError(RuntimeError):
    """Input file missing, malformed, or misaligned (exit 2)."""


def _sha256(path):
    h = hashlib.sha256()
    try:
        with open(path, "rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 16), b""):
                h.update(chunk)
    except OSError as exc:
        raise UnreadableInputError(f"cannot read {path}: {exc}") from exc
    return h.hexdigest()


@contextmanager
def _csv_rows(path):
    """Yield the header and an iterator over the other non-blank rows."""
    try:
        with open(path, newline="") as fh:
            rows = (row for row in csv.reader(fh) if row)
            yield next(rows, None), rows
    except OSError as exc:
        raise UnreadableInputError(f"cannot read {path}: {exc}") from exc
    except (ValueError, csv.Error) as exc:
        raise UnreadableInputError(f"{path}: {exc}") from exc


def load_table(path):
    """Read a CSV with one header row into (header, rows of strings)."""
    with _csv_rows(path) as (header, rows):
        body = [[c.strip() for c in row] for row in rows]
    if not body:
        raise UnreadableInputError(f"{path}: need a header row and data rows")
    for lineno, row in enumerate(body, start=2):
        if len(row) != len(header):
            raise UnreadableInputError(
                f"{path}: line {lineno} has {len(row)} fields, "
                f"expected {len(header)}")
    return [c.strip() for c in header], body


def parse_draws(path):
    """Read a draws file into a Draws table without assignments."""
    with _csv_rows(path) as (header, rows):
        if header is None or header[:3] != ["iter", "K", "K_plus"]:
            raise UnreadableInputError(f"{path}: not a draws file")
        r = sum(1 for name in header if name.startswith("mu_1_"))
        if r < 1:
            raise UnreadableInputError(f"{path}: no mu columns in header")
        il, jl = np.tril_indices(r)
        sweeps = []
        for row in rows:
            K = int(row[1])
            need = 3 + K * (2 + r + il.size)
            if len(row) != need:
                raise UnreadableInputError(
                    f"{path}: row iter={row[0]} has {len(row)} fields, "
                    f"needs {need} for K={K}")
            vals = np.array(row[3:need - K], dtype=float)
            Sigma, tri = np.zeros((K, r, r)), vals[K + K * r:].reshape(K, -1)
            Sigma[:, il, jl] = Sigma[:, jl, il] = tri
            sweeps.append((int(row[0]), K, int(row[2]), vals[:K],
                           vals[K:K + K * r].reshape(K, r), Sigma,
                           np.array(row[need - K:], dtype=int)))
    if not sweeps:
        raise UnreadableInputError(f"{path}: no draws found")
    return Draws.from_sweeps(sweeps)


def parse_assignments(path, draws):
    """Fill draws.S from an assignments file, matching on iteration index."""
    row_of = {it: t for t, it in enumerate(draws.iter.tolist())}
    with _csv_rows(path) as (header, rows):
        if header is None or header[0].strip() != "iter":
            raise UnreadableInputError(f"{path}: not an assignments file")
        S = np.empty((len(draws), len(header) - 1), dtype=int)
        seen = np.zeros(len(draws), dtype=bool)
        for lineno, row in enumerate(rows, start=2):
            if len(row) != len(header):
                raise UnreadableInputError(
                    f"{path}: line {lineno} has {len(row)} fields, "
                    f"expected {len(header)}")
            t = row_of.get(int(row[0]))
            if t is not None:
                S[t] = row[1:]
                seen[t] = True
    if not seen.all():
        raise UnreadableInputError(f"{path}: no assignment row for iteration "
                                   f"{draws.iter[~seen][0]}")
    if S.min() < 1 or np.any(S > draws.K[:, None]):
        raise UnreadableInputError(f"{path}: a label lies outside 1..K")
    S -= 1
    draws.S = S
    return draws


def parse_partition(path):
    """Labels of a partition file: its label column, else its last column.

    An index column, when the header has one, must read 1, 2, ..., N in
    order, so that row i is the label of data row i.
    """
    header, body = load_table(path)
    if "index" in header:
        i = header.index("index")
        for n, row in enumerate(body, start=1):
            if row[i] != str(n):
                raise UnreadableInputError(
                    f"{path}: data row {n} has index {row[i]!r}, expected "
                    f"{n} (the index must run 1..N in order)")
    j = header.index("label") if "label" in header else len(header) - 1
    return np.array([row[j] for row in body])


@contextmanager
def _replacing(path, newline=None):
    """Open path + ".tmp" for writing; move it over path once complete."""
    tmp = path + ".tmp"
    try:
        with open(tmp, "w", newline=newline) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def _write_csv(path, header, rows):
    with _replacing(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _rows(*columns, cells=1 << 14):
    """Zip array columns into rows of Python values, `cells` values a block."""
    width = sum(int(np.prod(c.shape[1:])) for c in columns)
    block = max(1, cells // width)
    for lo in range(0, len(columns[0]), block):
        yield from zip(*(c[lo:lo + block].tolist() for c in columns))


def write_draws(path, draws):
    """One row per stored sweep; rows carry their own K, header spans max K."""
    T, W, r = draws.mu.shape
    il, jl = np.tril_indices(r)
    header = ["iter", "K", "K_plus"]
    header += [f"eta_{k+1}" for k in range(W)]
    header += [f"mu_{k+1}_{d+1}" for k in range(W) for d in range(r)]
    header += [f"sigma_{k+1}_{i+1}_{j+1}" for k in range(W)
               for i, j in zip(il, jl)]
    header += [f"N_{k+1}" for k in range(W)]
    tri = (il * r + jl).tolist()      # lower triangle within a flat r x r
    columns = (draws.iter, draws.K, draws.K_plus, draws.eta,
               draws.mu.reshape(T, -1), draws.Sigma.reshape(T, W, r * r),
               draws.N_k)
    _write_csv(path, header, (
        [it, K, kp, *eta[:K], *mu[:K * r],
         *(s[i] for s in sig[:K] for i in tri), *N_k[:K]]
        for it, K, kp, eta, mu, sig, N_k in _rows(*columns)))


def write_assignments(path, draws):
    header = ["iter"] + [f"s_{i+1}" for i in range(draws.S.shape[1])]
    _write_csv(path, header, ([it] + [v + 1 for v in s]
                              for it, s in _rows(draws.iter, draws.S)))


def write_trace(path, trace):
    """Long-format (iter, series, value) export of the per-iteration series."""
    n_iter = trace["log_lik"].size
    columns = (trace["log_lik"], trace["K"], trace["K_plus"],
               trace.get("mu1", np.empty((n_iter, 0))))

    def rows():
        for it, (log_lik, K, kplus, mu1) in enumerate(_rows(*columns)):
            yield [it, "log_lik", log_lik]
            yield [it, "K", K]
            yield [it, "K_plus", kplus]
            for k, v in enumerate(mu1, start=1):
                yield [it, f"mu_{k}_1", v]

    _write_csv(path, ["iter", "series", "value"], rows())


def write_partition(path, labels):
    _write_csv(path, ["index", "label"],
               enumerate(np.asarray(labels).tolist(), start=1))


def write_kplus_distribution(path, dist_kplus):
    _write_csv(path, ["k_plus", "frequency"], dist_kplus.items())


def write_cluster_summary(path, summary):
    """Identified posterior means, one row per cluster in report order."""
    r = summary.mean_mu.shape[1]
    il, jl = np.tril_indices(r)
    header = (["cluster", "mean_size", "mean_eta"]
              + [f"mean_mu_{d+1}" for d in range(r)]
              + [f"mean_sigma_{i+1}_{j+1}" for i, j in zip(il, jl)])
    table = np.column_stack([summary.mean_N_k, summary.mean_eta,
                             summary.mean_mu, summary.mean_Sigma[:, il, jl]])
    _write_csv(path, header, ([rank, *row] for rank, row in enumerate(
        table[summary.report_order].tolist(), start=1)))


def write_json(path, payload):
    with _replacing(path) as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
