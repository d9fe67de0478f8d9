"""Every file format `fit`, `identify` and `evaluate` read or write.

Writers take the output path first and write ``path + ".tmp"``, which
replaces ``path`` only once complete. Floats are written as their repr,
so a draws file read back and written again is byte-identical.
"""

import csv
import hashlib
import itertools
import json
import os
import re
from contextlib import contextmanager

import numpy as np

from .sampler import Draws, grow, label_dtype


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
def _reading(path):
    """Yield path opened for the csv module; a failure to read or parse
    it is an UnreadableInputError naming the file."""
    try:
        with open(path, newline="") as fh:
            yield fh
    except OSError as exc:
        raise UnreadableInputError(f"cannot read {path}: {exc}") from exc
    except (ValueError, OverflowError, csv.Error) as exc:
        raise UnreadableInputError(f"{path}: {exc}") from exc


@contextmanager
def _csv_rows(path):
    """Yield the header and an iterator over the other non-blank rows."""
    with _reading(path) as fh:
        rows = (row for row in csv.reader(fh) if row)
        yield next(rows, None), rows


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
        lead, end = [], 0
        columns = (np.empty(0), np.empty((0, r)), np.empty((0, il.size)),
                   np.empty(0, dtype=int))
        for row in rows:
            try:
                K = int(row[1])
                need = 3 + K * (2 + r + il.size)
                if len(row) != need:
                    raise UnreadableInputError(
                        f"{path}: row iter={row[0]} has {len(row)} fields, "
                        f"needs {need} for K={K}")
                lead.append((int(row[0]), K, int(row[2])))
                start, end = end, end + K
                eta, mu, tri, N_k = columns = grow(columns, end)
                vals = np.array(row[3:need - K], dtype=float)
                eta[start:end], N_k[start:end] = vals[:K], row[need - K:]
                mu[start:end] = vals[K:K + K * r].reshape(K, r)
                tri[start:end] = vals[K + K * r:].reshape(K, il.size)
            except (ValueError, OverflowError, IndexError) as exc:
                raise UnreadableInputError(
                    f"{path}: row iter={row[0]} is malformed: {exc}") from None
    if not lead:
        raise UnreadableInputError(f"{path}: no draws found")
    try:
        iters, K, K_plus = np.array(lead, dtype=np.int64).T
    except OverflowError:
        raise UnreadableInputError(f"{path}: an iter or K_plus value lies "
                                   f"outside the 64-bit range") from None
    order = np.argsort(iters, kind="stable")
    again = order[1:][iters[order[1:]] == iters[order[:-1]]]
    if again.size:
        raise UnreadableInputError(f"{path}: iteration {iters[again.min()]} "
                                   f"has more than one row")
    N_k, of = N_k[:end], np.repeat(np.arange(K.size), K)    # each slot's row
    bad = ((K < 1) | (np.bincount(of[N_k < 0], minlength=K.size) > 0)
           | (np.bincount(of[N_k > 0], minlength=K.size) != K_plus))
    if bad.any():
        raise UnreadableInputError(
            f"{path}: row iter={iters[bad.argmax()]} needs K >= 1, N_k >= 0 "
            f"and K_plus equal to its count of N_k > 0")
    Sigma = np.empty((end, r, r))
    Sigma[:, il, jl] = Sigma[:, jl, il] = tri[:end]
    return Draws(iters, K, K_plus, eta[:end], mu[:end], Sigma, N_k, None)


def _assignments_header(path, fh):
    """The fields of a row of fh, off its header, and the header's end line."""
    reader = csv.reader(fh)
    header = next((row for row in reader if row), None)
    if header is None or header[0].strip() != "iter":
        raise UnreadableInputError(f"{path}: not an assignments file")
    if len(header) < 2:
        raise UnreadableInputError(f"{path}: no assignment columns")
    return len(header), reader.line_num


def parse_assignments(path, draws):
    """Fill draws.S from an assignments file, matching on iteration index.

    Python reads each line's field count and iteration, skips the rows of
    iterations the draws lack unparsed, and rejects a second row for one
    of theirs. One np.loadtxt call per block of lines (T / 8 for T draws
    and int8 labels, so a block's text stays a fraction of the table)
    parses the kept labels straight into label_dtype(draws.K.max()). A
    label too large for that type or not a plain integer (quoted, say;
    `write_assignments` never quotes) is an error naming its line, like
    one outside 1..K.
    """
    row_of = {it: t for t, it in enumerate(draws.iter.tolist())}
    dtype = label_dtype(int(draws.K.max()))
    line_of = np.zeros(len(draws), dtype=np.int64)    # 0: no row read yet

    def outside(lineno):
        return UnreadableInputError(f"{path}: line {lineno}: a label lies "
                                    f"outside 1..K or is not an integer")

    with _reading(path) as fh:
        width, lineno = _assignments_header(path, fh)
        S = np.empty((len(draws), width - 1), dtype=dtype)
        step = max(1, S.nbytes // (8 * width))
        while lines := list(itertools.islice(fh, step)):
            kept, rows = [], []
            for lineno, line in enumerate(lines, start=lineno + 1):
                if line in ("\n", "\r\n", "\r"):      # csv reads no row
                    continue
                if line.count(",") != width - 1:
                    raise UnreadableInputError(
                        f"{path}: line {lineno} has {line.count(',') + 1} "
                        f"fields, expected {width}")
                head, _, labels = line.partition(",")
                try:
                    t = row_of.get(int(head))
                except ValueError:
                    raise UnreadableInputError(f"{path}: line {lineno} has "
                                               f"no integer iter") from None
                if t is None:
                    continue
                if line_of[t]:
                    raise UnreadableInputError(
                        f"{path}: iteration {draws.iter[t]} has a second "
                        f"assignment row (line {lineno})")
                line_of[t] = lineno
                kept.append(labels)
                rows.append(t)
            try:
                if kept:
                    S[rows] = np.loadtxt(kept, dtype=dtype, delimiter=",",
                                         comments=None, ndmin=2)
            except ValueError as exc:     # numpy names the row of kept
                row = int(re.search(r"at row (\d+)", str(exc))[1])
                raise outside(line_of[rows[row]]) from None
    if not line_of.all():
        raise UnreadableInputError(f"{path}: no assignment row for iteration "
                                   f"{draws.iter[line_of == 0][0]}")
    bad = (S < 1).any(axis=1) | (S > draws.K[:, None]).any(axis=1)
    if bad.any():
        raise outside(line_of[bad].min())
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
    """One row per stored sweep, sliced from the columns at np.cumsum(K);
    rows carry their own K, the header spans K.max()."""
    r, W = draws.mu.shape[-1], int(draws.K.max())
    il, jl = np.tril_indices(r)
    header = ["iter", "K", "K_plus"]
    header += [f"eta_{k+1}" for k in range(W)]
    header += [f"mu_{k+1}_{d+1}" for k in range(W) for d in range(r)]
    header += [f"sigma_{k+1}_{i+1}_{j+1}" for k in range(W)
               for i, j in zip(il, jl)]
    header += [f"N_{k+1}" for k in range(W)]
    tri = il * r + jl                 # lower triangle within a flat r x r
    eta, mu = draws.eta.reshape(-1), draws.mu.reshape(-1, r)
    sig, N_k = draws.Sigma.reshape(-1, r * r), draws.N_k.reshape(-1)
    ends = np.cumsum(draws.K)
    _write_csv(path, header, (
        [it, b - a, kp, *eta[a:b].tolist(), *mu[a:b].ravel().tolist(),
         *sig[a:b, tri].ravel().tolist(), *N_k[a:b].tolist()]
        for it, kp, a, b in zip(draws.iter.tolist(), draws.K_plus.tolist(),
                                (ends - draws.K).tolist(), ends.tolist())))


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
