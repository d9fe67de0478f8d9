"""End-to-end tests of the command-line interface and its file formats."""

import concurrent.futures
import filecmp
import json
import os
import shutil
import subprocess
import sys
import tracemalloc
from concurrent.futures import Future

import numpy as np
import pytest

from bgmix import artifacts, cli
from bgmix.cli import (ConfigError, UnreadableInputError, load_dataset,
                       load_table, main, parse_draws, write_assignments,
                       write_draws)
from bgmix.model import (ChainConfig, DynamicGamma, FixedGamma, FixedK,
                         RandomK, build_default_prior)
from bgmix.sampler import SamplerError, run_chain
from reference import assignment_table


DIABETES_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "data",
                             "diabetes.csv")


def _write_blobs(path, seed=0):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((15, 2))
    b = rng.standard_normal((25, 2)) + 8.0
    with open(path, "w") as fh:
        fh.write("x,y,group\n")
        for row in a:
            fh.write(f"{row[0]:.6f},{row[1]:.6f},low\n")
        for row in b:
            fh.write(f"{row[0]:.6f},{row[1]:.6f},high\n")
    return path


@pytest.fixture(scope="module")
def blob_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "blobs.csv"
    return str(_write_blobs(path))


@pytest.fixture(scope="module")
def fit_dir(tmp_path_factory, blob_csv):
    """One shared fixed-k fit whose artifacts the read-only tests reuse."""
    out = tmp_path_factory.mktemp("fit")
    rc = main(["fit", blob_csv, "--out", str(out), "--mode", "fixed-k",
               "--k", "2", "--iters", "400", "--burnin", "100",
               "--seed", "7"])
    assert rc == 0
    return str(out)


@pytest.fixture(scope="module")
def mfm_fit_dir(tmp_path_factory, blob_csv):
    """A telescoping fit, whose draws rows vary in width with K."""
    out = tmp_path_factory.mktemp("mfm_fit")
    rc = main(["fit", blob_csv, "--out", str(out), "--mode", "mfm",
               "--kinit", "3", "--iters", "150", "--burnin", "50",
               "--seed", "7"])
    assert rc == 0
    return str(out)


class TestLoadTable:

    def test_missing_file(self, tmp_path):
        with pytest.raises(UnreadableInputError):
            load_table(str(tmp_path / "absent.csv"))

    def test_header_only(self, tmp_path):
        p = tmp_path / "empty.csv"
        p.write_text("a,b\n")
        with pytest.raises(UnreadableInputError):
            load_table(str(p))

    def test_ragged_row_names_line(self, tmp_path):
        p = tmp_path / "ragged.csv"
        p.write_text("a,b\n1,2\n3\n")
        with pytest.raises(UnreadableInputError, match="line 3"):
            load_table(str(p))


class TestLoadDataset:

    def test_label_column_auto_detected(self, blob_csv):
        data = load_dataset(blob_csv)
        assert data.feature_names == ["x", "y"]
        assert data.y.shape == (40, 2)
        assert set(data.true_labels) == {"low", "high"}

    def test_features_by_name_and_index(self, blob_csv):
        by_name = load_dataset(blob_csv, features=["y"])
        by_index = load_dataset(blob_csv, features=["1"])
        np.testing.assert_array_equal(by_name.y, by_index.y)
        assert by_name.feature_names == ["y"]

    def test_non_numeric_feature_rejected(self, blob_csv):
        with pytest.raises(ConfigError, match="not numeric"):
            load_dataset(blob_csv, features=["group"])

    def test_unknown_column_rejected(self, blob_csv):
        with pytest.raises(ConfigError, match="not found"):
            load_dataset(blob_csv, features=["glucose"])

    def test_multiple_text_columns_need_flags(self, tmp_path):
        p = tmp_path / "two_text.csv"
        p.write_text("x,tag,group\n1.0,u,a\n2.0,v,b\n")
        with pytest.raises(ConfigError, match="multiple non-numeric"):
            load_dataset(str(p))
        data = load_dataset(str(p), features=["x"], label_col="group")
        assert data.feature_names == ["x"]
        np.testing.assert_array_equal(data.true_labels, ["a", "b"])

    def test_no_numeric_columns(self, tmp_path):
        p = tmp_path / "text_only.csv"
        p.write_text("group\na\nb\n")
        with pytest.raises(UnreadableInputError, match="no numeric"):
            load_dataset(str(p))

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_feature_value_exits_2(self, tmp_path, capsys, value):
        p = tmp_path / "holes.csv"
        p.write_text(f"x,y,group\n1.0,2.0,a\n3.0,{value},b\n5.0,1.0,a\n")
        rc = main(["fit", str(p), "--k", "2", "--iters", "20",
                   "--burnin", "5", "--out", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(p) in err and "'y'" in err


class TestFitCommand:

    def test_artifacts_and_manifest(self, fit_dir, blob_csv):
        for name in ["draws.csv", "trace.csv", "assignments.csv",
                     "manifest.json"]:
            assert os.path.exists(os.path.join(fit_dir, name))
        with open(os.path.join(fit_dir, "manifest.json")) as fh:
            manifest = json.load(fh)
        echo = manifest["config_echo"]
        assert echo["mode"] == "fixed-k"
        assert echo["k"] == 2
        assert echo["iters"] == 400
        assert echo["seed"] == 7
        assert echo["data"] == blob_csv
        assert manifest["dataset_hash"] == cli._sha256(blob_csv)
        assert set(manifest["artifact_paths"]) == {
            "draws", "trace", "assignments", "manifest"}
        records = parse_draws(os.path.join(fit_dir, "draws.csv"))
        assert len(records) == 300
        assert np.all(records.K == 2)

    def test_trace_format(self, fit_dir):
        header, body = load_table(os.path.join(fit_dir, "trace.csv"))
        assert header == ["iter", "series", "value"]
        series = {row[1] for row in body}
        assert series == {"log_lik", "K", "K_plus", "mu_1_1", "mu_2_1"}
        iters = {int(row[0]) for row in body}
        assert min(iters) == 0 and max(iters) == 399

    def test_draws_round_trip_is_byte_identical(self, fit_dir, mfm_fit_dir,
                                                tmp_path):
        for name, out in [("fixed_k", fit_dir), ("mfm", mfm_fit_dir)]:
            src = os.path.join(out, "draws.csv")
            records = parse_draws(src)
            dst = str(tmp_path / f"rewritten_{name}.csv")
            write_draws(dst, records)
            assert filecmp.cmp(src, dst, shallow=False)
        # the mfm rows carry their own K, so their widths differ
        assert np.unique(records.K).size > 1

    @pytest.mark.parametrize("mode", ["fixed-k", "mfm"])
    def test_parse_draws_gives_back_the_chain_records(self, blob_csv,
                                                      tmp_path, mode):
        data = load_dataset(blob_csv)
        if mode == "fixed-k":
            k_prior, gamma_spec = FixedK(2), FixedGamma(1.0)
        else:
            k_prior = RandomK(1.0, 4.0, 3.0, k_max=100, k_init=3)
            gamma_spec = DynamicGamma(0.5)
        prior = build_default_prior(data, gamma_spec=gamma_spec,
                                    k_prior=k_prior)
        rec = run_chain(data, prior, ChainConfig(n_iter=150, burn_in=50,
                                                 seed=7)).records
        path = str(tmp_path / "draws.csv")
        write_draws(path, rec)
        back = parse_draws(path)
        assert back.S is None
        write_assignments(str(tmp_path / "assignments.csv"), rec)
        artifacts.parse_assignments(str(tmp_path / "assignments.csv"), back)
        il, jl = np.tril_indices(data.r)
        # the file holds Sigma's lower triangle; the chain's Sigma is
        # exactly symmetric, so the parsed upper one is the chain's too
        pairs = [(back.Sigma[..., il, jl], rec.Sigma[..., il, jl]),
                 (back.Sigma[..., jl, il], rec.Sigma[..., jl, il])]
        for name in ["iter", "K", "K_plus", "eta", "mu", "N_k", "S"]:
            pairs.append((getattr(back, name), getattr(rec, name)))
        for got, want in pairs:
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()
        assert (np.unique(rec.K).size > 1) == (mode == "mfm")
        # K = 2 and k_max = 100: one byte a label, in the chain and the file
        assert rec.S.dtype == np.int8

    def test_draws_row_with_extra_field_exits_2(self, fit_dir, tmp_path,
                                               capsys):
        with open(os.path.join(fit_dir, "draws.csv")) as fh:
            lines = fh.read().splitlines()
        lines[1] += ",0"
        bad = tmp_path / "draws.csv"
        bad.write_text("\n".join(lines) + "\n")
        rc = main(["identify", str(bad), "--out", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "needs" in err

    @pytest.mark.parametrize("where, cells", [
        (slice(2, 3), ["5"]),             # K_plus = K + 3; the fit has K = 2
        (slice(-2, None), ["0", "0"]),    # every N_k zeroed
        (slice(-1, None), ["-1"]),        # a negative N_k
        (slice(1, None), ["0", "0"]),     # K = 0 and no slots
        (slice(3, 4), ["x"]),             # an eta that is not a number
        (slice(1, None), []),             # no K, K_plus or slots
    ], ids=["kplus-above-k", "zeroed-N", "negative-N", "K-zero",
            "eta-not-a-number", "iter-only"])
    def test_inconsistent_draws_row_exits_2(self, fit_dir, tmp_path, capsys,
                                            where, cells):
        with open(os.path.join(fit_dir, "draws.csv")) as fh:
            lines = fh.read().splitlines()
        row = lines[5].split(",")
        row[where] = cells
        lines[5] = ",".join(row)
        bad = tmp_path / "draws.csv"
        bad.write_text("\n".join(lines) + "\n")
        rc = main(["identify", str(bad), "--no-vi", "--out", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"row iter={row[0]} " in err

    @pytest.mark.parametrize("label", ["0", "3"])
    def test_assignment_label_outside_k_exits_2(self, fit_dir, tmp_path,
                                                capsys, label):
        with open(os.path.join(fit_dir, "assignments.csv")) as fh:
            lines = fh.read().splitlines()
        cells = lines[1].split(",")
        cells[1] = label                  # the fit has K = 2
        lines[1] = ",".join(cells)
        bad = tmp_path / "assignments.csv"
        bad.write_text("\n".join(lines) + "\n")
        rc = main(["identify", os.path.join(fit_dir, "draws.csv"),
                   "--assignments", str(bad), "--out", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("name, row, col, value, message", [
        ("assignments", 1, 1, "1" + "0" * 22, "a label lies outside 1..K"),
        ("assignments", 1, 1, "300", "a label lies outside 1..K"),
        ("assignments", 1, 1, "-129", "a label lies outside 1..K"),
        ("assignments", 1, 1, "x", "line 2: a label lies outside 1..K"),
        ("assignments", 40, 3, "x", "line 41: a label lies outside 1..K"),
        ("assignments", 1, 1, '"2"', "line 2: a label lies outside 1..K"),
        ("assignments", None, slice(1, None), [], "no assignment columns"),
        ("draws", 1, 0, "1" + "0" * 22, "an iter or K_plus value lies "
         "outside the 64-bit range"),
        ("draws", 1, 2, "1" + "0" * 22, "an iter or K_plus value lies "
         "outside the 64-bit range"),
        ("draws", 1, -1, "1" + "0" * 22, "Python int too large"),
    ], ids=["23-digit-label", "label-300", "label-minus-129", "label-x",
            "label-x-second-block", "quoted-label", "iter-column-only",
            "23-digit-iter", "23-digit-K_plus", "23-digit-N_k"])
    def test_integer_field_out_of_range_exits_2(self, fit_dir, tmp_path,
                                                capsys, name, row, col,
                                                value, message):
        """The fit has K = 2, so its labels are read as int8: a label that
        does not fit, or is not a plain integer, lies outside 1..K like
        any other, on the line that holds it. The cell is set in data row
        `row` (file line row + 1), or cut from every line when row is
        None. The assignments are read in blocks of 36 rows, so row 40
        lies in the second."""
        paths = {}
        for kind in ("draws", "assignments"):
            with open(os.path.join(fit_dir, kind + ".csv")) as fh:
                lines = fh.read().splitlines()
            if kind == name:
                for i in range(len(lines)) if row is None else [row]:
                    cells = lines[i].split(",")
                    cells[col] = value
                    lines[i] = ",".join(cells)
            paths[kind] = str(tmp_path / (kind + ".csv"))
            with open(paths[kind], "w") as fh:
                fh.write("\n".join(lines) + "\n")
        rc = main(["identify", paths["draws"], "--assignments",
                   paths["assignments"], "--out", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {paths[name]}: ")
        assert err.count("\n") == 1 and message in err

    @pytest.mark.parametrize("write, error", [
        (lambda p: artifacts.write_partition(p, np.arange(5000)), OSError),
        (lambda p: artifacts.write_json(p, {"a": 1, "b": object()}),
         TypeError),
    ], ids=["csv", "json"])
    def test_failed_write_keeps_existing_file(self, tmp_path, monkeypatch,
                                              write, error):
        path = tmp_path / "artifact"
        path.write_bytes(b"earlier contents\n")
        real_writer = artifacts.csv.writer

        class FailingWriter:
            """Writes a header and one row, then fails like a full disk."""

            def __init__(self, fh):
                self.inner, self.rows = real_writer(fh), 0

            def writerow(self, row):
                self.rows += 1
                if self.rows > 2:
                    raise OSError("no space left on device")
                self.inner.writerow(row)

            def writerows(self, rows):
                for row in rows:
                    self.writerow(row)

        monkeypatch.setattr(artifacts.csv, "writer", FailingWriter)
        with pytest.raises(error):
            write(str(path))
        assert path.read_bytes() == b"earlier contents\n"
        assert os.listdir(tmp_path) == ["artifact"]

    def test_same_seed_reproduces_files(self, blob_csv, tmp_path):
        args = [blob_csv, "--mode", "fixed-k", "--k", "2", "--iters", "80",
                "--burnin", "20", "--seed", "3"]
        out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
        assert main(["fit"] + args + ["--out", out1]) == 0
        assert main(["fit"] + args + ["--out", out2]) == 0
        for name in ["draws.csv", "trace.csv", "assignments.csv"]:
            assert filecmp.cmp(os.path.join(out1, name),
                               os.path.join(out2, name), shallow=False)

    def test_manifest_round_trip(self, fit_dir, tmp_path):
        out2 = str(tmp_path / "replay")
        rc = main(["fit", "--config", os.path.join(fit_dir, "manifest.json"),
                   "--out", out2])
        assert rc == 0
        assert filecmp.cmp(os.path.join(fit_dir, "draws.csv"),
                           os.path.join(out2, "draws.csv"), shallow=False)

    def test_manifest_hash_mismatch(self, fit_dir, tmp_path, capsys):
        with open(os.path.join(fit_dir, "manifest.json")) as fh:
            manifest = json.load(fh)
        manifest["dataset_hash"] = "0" * 64
        bad = tmp_path / "stale_manifest.json"
        bad.write_text(json.dumps(manifest))
        rc = main(["fit", "--config", str(bad),
                   "--out", str(tmp_path / "replay")])
        assert rc == 3
        assert "hash mismatch" in capsys.readouterr().err

    def test_cli_overrides_config_file(self, blob_csv, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"data": blob_csv, "mode": "fixed-k",
                                   "k": 2, "iters": 60, "burnin": 20}))
        out = str(tmp_path / "out")
        rc = main(["fit", "--config", str(cfg), "--iters", "90",
                   "--out", out])
        assert rc == 0
        with open(os.path.join(out, "manifest.json")) as fh:
            echo = json.load(fh)["config_echo"]
        assert echo["iters"] == 90
        assert len(parse_draws(os.path.join(out, "draws.csv"))) == 70

    def test_unknown_config_key(self, blob_csv, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"data": blob_csv, "mode": "fixed-k",
                                   "k": 2, "sweeps": 10}))
        rc = main(["fit", "--config", str(cfg), "--out", str(tmp_path)])
        assert rc == 3
        assert "sweeps" in capsys.readouterr().err

    @pytest.mark.parametrize("features", ["", ",", []],
                             ids=["empty-flag", "comma-flag", "empty-list"])
    def test_empty_feature_list_exits_3(self, blob_csv, tmp_path, capsys,
                                        features):
        argv = ["fit", blob_csv, "--k", "2", "--iters", "20", "--burnin", "5",
                "--out", str(tmp_path)]
        if isinstance(features, str):
            argv += ["--features", features]
        else:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"features": features}))
            argv += ["--config", str(cfg)]
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "features" in err

    @pytest.mark.parametrize("mode,bad", [
        ("fixed-k", {"gamma": "0.5"}),
        ("fixed-k", {"chains": "2"}),
        ("fixed-k", {"permute": "yes"}),
        ("mfm", {"bnb": [1, "4", 3]}),
    ])
    def test_config_value_of_wrong_type_exits_3(self, blob_csv, tmp_path,
                                                capsys, mode, bad):
        cfg = tmp_path / "cfg.json"
        base = {"data": blob_csv, "mode": mode, "iters": 20, "burnin": 5}
        if mode == "fixed-k":
            base["k"] = 2
        cfg.write_text(json.dumps({**base, **bad}))
        rc = main(["fit", "--config", str(cfg), "--out", str(tmp_path)])
        assert rc == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert repr(next(iter(bad))) in err

    def test_missing_data_exits_2(self, tmp_path):
        rc = main(["fit", str(tmp_path / "nope.csv"), "--mode", "fixed-k",
                   "--k", "2", "--out", str(tmp_path)])
        assert rc == 2

    def test_fixed_k_requires_k(self, blob_csv, tmp_path):
        rc = main(["fit", blob_csv, "--mode", "fixed-k",
                   "--out", str(tmp_path)])
        assert rc == 3

    def test_mfm_rejects_gamma_and_alpha(self, blob_csv, tmp_path):
        rc = main(["fit", blob_csv, "--mode", "mfm", "--gamma", "0.5",
                   "--alpha", "0.5", "--iters", "20", "--burnin", "5",
                   "--out", str(tmp_path)])
        assert rc == 3

    @pytest.mark.parametrize("flags", [
        ["--mode", "fixed-k", "--k", "0"],
        ["--mode", "sfm", "--k", "0"],
        ["--mode", "mfm", "--kinit", "0"],
        ["--mode", "mfm", "--bnb", "0,4,3"],
        ["--mode", "mfm", "--bnb", "nan,4,3"],
        ["--mode", "mfm", "--kinit", "50", "--kmax", "5"],
        ["--mode", "mfm", "--kmax", "0"],
    ])
    def test_invalid_k_prior_exits_3(self, blob_csv, tmp_path, capsys, flags):
        rc = main(["fit", blob_csv, "--iters", "20", "--burnin", "5",
                   "--out", str(tmp_path)] + flags)
        assert rc == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("flags", [
        ["--mode", "fixed-k", "--k", "2", "--gamma", "nan"],
        ["--mode", "fixed-k", "--k", "2", "--gamma", "inf"],
        ["--mode", "fixed-k", "--k", "2", "--phi", "nan"],
        ["--mode", "fixed-k", "--k", "2", "--c", "inf"],
        ["--mode", "mfm", "--alpha", "nan"],
    ])
    def test_non_finite_hyperparameter_exits_3(self, blob_csv, tmp_path,
                                               capsys, flags):
        rc = main(["fit", blob_csv, "--iters", "20", "--burnin", "5",
                   "--out", str(tmp_path)] + flags)
        assert rc == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_negative_seed_exits_3(self, blob_csv, tmp_path, capsys):
        rc = main(["fit", blob_csv, "--mode", "fixed-k", "--k", "2",
                   "--iters", "20", "--burnin", "5", "--seed", "-1",
                   "--out", str(tmp_path)])
        assert rc == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_sampler_failure_exits_4(self, blob_csv, tmp_path, monkeypatch):
        def boom(*args, **kwargs):
            raise SamplerError("iteration 5: synthetic")

        monkeypatch.setattr(cli, "run_chain", boom)
        rc = main(["fit", blob_csv, "--mode", "fixed-k", "--k", "2",
                   "--iters", "20", "--burnin", "5", "--out", str(tmp_path)])
        assert rc == 4

    def test_out_dir_env_var(self, blob_csv, tmp_path, monkeypatch):
        target = tmp_path / "from_env"
        monkeypatch.setenv("BGMIX_OUT_DIR", str(target))
        rc = main(["fit", blob_csv, "--mode", "fixed-k", "--k", "2",
                   "--iters", "40", "--burnin", "10"])
        assert rc == 0
        assert os.path.exists(target / "manifest.json")

    def test_multiple_chains(self, blob_csv, tmp_path):
        out = str(tmp_path / "pair")
        rc = main(["fit", blob_csv, "--mode", "fixed-k", "--k", "2",
                   "--iters", "60", "--burnin", "20", "--seed", "3",
                   "--chains", "2", "--out", out])
        assert rc == 0
        for i in (0, 1):
            for kind in ("draws", "trace", "assignments"):
                assert os.path.exists(os.path.join(out, f"{kind}_chain{i}.csv"))
        # chain 0 runs the base seed, so it matches a single-chain fit
        single = str(tmp_path / "single")
        main(["fit", blob_csv, "--mode", "fixed-k", "--k", "2",
              "--iters", "60", "--burnin", "20", "--seed", "3",
              "--out", single])
        assert filecmp.cmp(os.path.join(out, "draws_chain0.csv"),
                           os.path.join(single, "draws.csv"), shallow=False)
        assert not filecmp.cmp(os.path.join(out, "draws_chain0.csv"),
                               os.path.join(out, "draws_chain1.csv"),
                               shallow=False)

    def test_chains_capped_at_cpu_count(self, blob_csv, tmp_path,
                                        monkeypatch):
        seen = {}

        class InlinePool:
            """Records max_workers and runs each submitted chain inline."""

            def __init__(self, max_workers):
                seen["max_workers"] = max_workers

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                future = Future()
                future.set_result(fn(*args))
                return future

        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        # cmd_fit imports the pool class from here when it needs one
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            InlinePool)
        out = str(tmp_path / "three")
        rc = main(["fit", blob_csv, "--mode", "fixed-k", "--k", "2",
                   "--iters", "30", "--burnin", "10", "--chains", "3",
                   "--out", out])
        assert rc == 0
        assert seen["max_workers"] == 2
        for i in range(3):
            assert os.path.exists(os.path.join(out, f"draws_chain{i}.csv"))

    def test_sfm_and_mfm_modes_run(self, blob_csv, tmp_path):
        rc = main(["fit", blob_csv, "--mode", "sfm", "--k", "4",
                   "--gamma", "0.01", "--iters", "60", "--burnin", "20",
                   "--out", str(tmp_path / "sfm")])
        assert rc == 0
        rc = main(["fit", blob_csv, "--mode", "mfm", "--bnb", "1,4,3",
                   "--alpha", "0.5", "--kinit", "3", "--iters", "60",
                   "--burnin", "20", "--out", str(tmp_path / "mfm")])
        assert rc == 0
        recs = parse_draws(str(tmp_path / "mfm" / "draws.csv"))
        assert len(recs) == 40

    def test_fit_runs_on_small_unit_data(self, tmp_path, capsys):
        """The diabetes data in units 1e4 times larger: the C0 update's
        rate, a sum of inverse covariances, grows by 1e8, and its
        rounding asymmetry with it, past an absolute 1e-10."""
        header, body = load_table(DIABETES_PATH)
        path = tmp_path / "diabetes_e-4.csv"
        with open(path, "w") as fh:
            fh.write(",".join(header) + "\n")
            for row in body:
                scaled = [repr(float(v) * 1e-4) for v in row[:3]]
                fh.write(",".join(scaled + row[3:]) + "\n")
        rc = main(["fit", str(path), "--mode", "sfm", "--iters", "50",
                   "--burnin", "10", "--seed", "1",
                   "--out", str(tmp_path / "fit")])
        assert rc == 0, capsys.readouterr().err
        recs = parse_draws(str(tmp_path / "fit" / "draws.csv"))
        assert len(recs) == 40


class TestIdentifyCommand:

    def test_outputs_and_manifest(self, fit_dir, tmp_path):
        out = str(tmp_path / "ident")
        rc = main(["identify", os.path.join(fit_dir, "draws.csv"),
                   "--out", out, "--seed", "1"])
        assert rc == 0
        for name in ["kplus_distribution.csv", "cluster_summary.csv",
                     "partition_map.csv", "partition_vi.csv",
                     "identify_manifest.json"]:
            assert os.path.exists(os.path.join(out, name))
        with open(os.path.join(out, "identify_manifest.json")) as fh:
            manifest = json.load(fh)
        assert manifest["k_plus"] == 2
        assert manifest["kplus_distribution"]["2"] == 1.0
        assert manifest["non_permutation_rate"] == 0.0

        header, body = load_table(os.path.join(out, "cluster_summary.csv"))
        assert header[:3] == ["cluster", "mean_size", "mean_eta"]
        assert len(body) == 2
        sizes = sorted(float(row[1]) for row in body)
        np.testing.assert_allclose(sizes, [15.0, 25.0], atol=0.5)

        header, body = load_table(os.path.join(out, "partition_map.csv"))
        assert header == ["index", "label"]
        assert len(body) == 40
        labels = np.array([int(row[1]) for row in body])
        assert set(labels) == {1, 2}
        # the blobs are well separated, so MAP and VI partitions agree
        _, vi_body = load_table(os.path.join(out, "partition_vi.csv"))
        vi_labels = np.array([int(row[1]) for row in vi_body])
        same = np.all(labels == vi_labels)
        flipped = np.all(labels == 3 - vi_labels)
        assert same or flipped

    def test_no_vi_flag(self, fit_dir, tmp_path):
        out = str(tmp_path / "novi")
        rc = main(["identify", os.path.join(fit_dir, "draws.csv"),
                   "--out", out, "--no-vi"])
        assert rc == 0
        assert not os.path.exists(os.path.join(out, "partition_vi.csv"))

    def test_unavailable_kplus_exits_5(self, fit_dir, tmp_path):
        rc = main(["identify", os.path.join(fit_dir, "draws.csv"),
                   "--out", str(tmp_path), "--kplus", "9"])
        assert rc == 5

    def test_bad_kplus_value_exits_3(self, fit_dir, tmp_path):
        rc = main(["identify", os.path.join(fit_dir, "draws.csv"),
                   "--out", str(tmp_path), "--kplus", "few"])
        assert rc == 3

    @pytest.mark.parametrize("kplus", ["0", "-2"])
    def test_kplus_below_one_exits_3(self, fit_dir, tmp_path, capsys, kplus):
        rc = main(["identify", os.path.join(fit_dir, "draws.csv"),
                   "--out", str(tmp_path), "--kplus", kplus])
        assert rc == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("thin", ["0", "-3"])
    def test_vi_thin_below_one_exits_3(self, fit_dir, tmp_path, capsys, thin):
        rc = main(["identify", os.path.join(fit_dir, "draws.csv"),
                   "--out", str(tmp_path), "--vi-thin", thin])
        assert rc == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_negative_seed_exits_3(self, fit_dir, tmp_path, capsys):
        rc = main(["identify", os.path.join(fit_dir, "draws.csv"),
                   "--out", str(tmp_path), "--seed", "-1"])
        assert rc == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_missing_draws_exits_2(self, tmp_path):
        rc = main(["identify", str(tmp_path / "absent.csv"),
                   "--out", str(tmp_path)])
        assert rc == 2

    def test_without_assignments_exits_5(self, blob_csv, tmp_path, capsys):
        out = str(tmp_path / "bare")
        rc = main(["fit", blob_csv, "--mode", "fixed-k", "--k", "2",
                   "--iters", "60", "--burnin", "20",
                   "--no-store-assignments", "--out", out])
        assert rc == 0
        assert not os.path.exists(os.path.join(out, "assignments.csv"))
        rc = main(["identify", os.path.join(out, "draws.csv"), "--out", out])
        assert rc == 5
        assert "--store-assignments" in capsys.readouterr().err

    def test_other_runs_assignments_are_not_read(self, fit_dir, tmp_path,
                                                 capsys):
        # a chain fitted without assignments, into the directory of an
        # earlier single-chain run that stored its own
        shutil.copy(os.path.join(fit_dir, "draws.csv"),
                    tmp_path / "draws_chain0.csv")
        shutil.copy(os.path.join(fit_dir, "assignments.csv"), tmp_path)
        rc = main(["identify", str(tmp_path / "draws_chain0.csv"),
                   "--out", str(tmp_path / "ident")])
        assert rc == 5
        assert "--store-assignments" in capsys.readouterr().err


def _rewrite(src, dst, edit, newline="\n"):
    """Write src's lines, as edit(lines) returns them, to dst."""
    with open(src) as fh:
        lines = edit(fh.read().splitlines())
    with open(dst, "w", newline="") as fh:
        fh.write(newline.join(lines) + newline)
    return str(dst)


class TestAssignmentsReader:
    """parse_assignments checks each line's fields and iteration in Python
    and parses the kept rows' labels with one np.loadtxt call per block
    of lines; it must give the table a row-by-row conversion gives."""

    @pytest.mark.parametrize("edit, newline", [
        (lambda lines: lines, "\n"),
        (lambda lines: ["", lines[0], "", *lines[1:50], "", "",
                        *lines[50:], ""], "\n"),
        (lambda lines: lines, "\r\n"),
        (lambda lines: [lines[0], "-3," + lines[1].split(",", 1)[1],
                        *lines[1:100], "1000000," + ",".join(
                            ["x"] * (len(lines[0].split(",")) - 1)),
                        *lines[100:], "7777," + lines[5].split(",", 1)[1]],
         "\n"),
    ], ids=["plain", "blank-lines", "crlf", "other-iterations"])
    def test_same_table_as_row_by_row(self, fit_dir, tmp_path, edit,
                                      newline):
        path = _rewrite(os.path.join(fit_dir, "assignments.csv"),
                        tmp_path / "assignments.csv", edit, newline)
        draws = parse_draws(os.path.join(fit_dir, "draws.csv"))
        want = assignment_table(path, draws)
        got = artifacts.parse_assignments(path, draws).S
        assert got.dtype == want.dtype == np.int8
        assert got.tobytes() == want.tobytes()
        # 300 rows of 40 labels: blocks of 300 * 40 // (8 * 41) = 36 rows
        assert got.shape == (300, 40)

    def test_memory_is_the_table_and_one_block(self, fit_dir, tmp_path):
        """300 rows of 4000 int8 labels (1.2 MB) come in blocks of 37
        rows, whose text is 0.3 MB. The bound allows the table, a block's
        text and an int64 copy of it (1.18 MB), and half a block more;
        parsed straight into int8 the labels peak at 2.6 MB of the 3.4
        MB it allows. The file as one int64 array would take 9.6 MB."""
        draws = parse_draws(os.path.join(fit_dir, "draws.csv"))
        T, n = len(draws), 4000
        labels = np.random.default_rng(17).integers(1, 3, (T, n))
        path = str(tmp_path / "wide.csv")
        with open(path, "w") as fh:
            fh.write("iter," + ",".join(f"s_{i + 1}" for i in range(n))
                     + "\n")
            for it, row in zip(draws.iter.tolist(), labels.tolist()):
                fh.write(f"{it}," + ",".join(map(str, row)) + "\n")
        step = T * n // (8 * (n + 1))
        block = step * (n + 1) * 8 + step * 2 * n
        tracemalloc.start()
        try:
            S = artifacts.parse_assignments(path, draws).S
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        np.testing.assert_array_equal(S, labels - 1)
        assert peak < S.nbytes + 1.5 * block, (
            f"peak {peak / 1e6:.2f} MB, table {S.nbytes / 1e6:.2f} MB, "
            f"block {block / 1e6:.2f} MB")

    @pytest.mark.parametrize("blank", [0, 2])
    def test_field_count_error_names_the_file_line(self, fit_dir, tmp_path,
                                                   capsys, blank):
        """Line 6 (with two blank lines before the header, line 8) gets
        an extra field; blank lines count as lines of the file."""
        def edit(lines):
            return [""] * blank + lines[:5] + [lines[5] + ",1"] + lines[6:]

        path = _rewrite(os.path.join(fit_dir, "assignments.csv"),
                        tmp_path / "assignments.csv", edit)
        rc = main(["identify", os.path.join(fit_dir, "draws.csv"),
                   "--assignments", path, "--out", str(tmp_path)])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: {path}: line {6 + blank} has 42 fields, expected 41\n")

    @pytest.mark.parametrize("where", ["next", "last"])
    def test_second_row_for_an_iteration_exits_2(self, fit_dir, tmp_path,
                                                 capsys, where):
        """Iteration 100's row again, its first label changed: next to
        it (one block) or at the end of the file (another)."""
        def edit(lines):
            again = lines[1].split(",")
            again[1] = "2" if again[1] == "1" else "1"
            at = 2 if where == "next" else len(lines)
            return lines[:at] + [",".join(again)] + lines[at:]

        path = _rewrite(os.path.join(fit_dir, "assignments.csv"),
                        tmp_path / "assignments.csv", edit)
        rc = main(["identify", os.path.join(fit_dir, "draws.csv"),
                   "--assignments", path, "--out", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: iteration 100 has a second "
                              f"assignment row")
        assert err.count("\n") == 1

    def test_repeated_draws_iteration_exits_2(self, fit_dir, tmp_path,
                                              capsys):
        path = _rewrite(os.path.join(fit_dir, "draws.csv"),
                        tmp_path / "draws.csv",
                        lambda lines: lines[:3] + lines[2:])
        shutil.copy(os.path.join(fit_dir, "assignments.csv"), tmp_path)
        rc = main(["identify", path, "--out", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err == (f"error: {path}: iteration 101 has more than one "
                       f"row\n")


class TestCommandLine:

    @pytest.mark.parametrize("argv", [
        ["fit", "{data}", "--iters", "abc"],
        ["fit", "{data}", "--bnb", "1,x,3"],
        ["fit", "{data}", "--mode", "sfm", "--iters", "20", "--burnin", "5",
         "--bnb", "1,2"],
        ["fit", "{data}", "--mode", "foo"],
        ["fit", "{data}", "--bogus"],
        ["identify", "{draws}", "--vi-thin", "x"],
        [],
    ], ids=["iters", "bnb-value", "bnb-count", "mode", "unknown-flag",
            "vi-thin", "no-command"])
    def test_bad_command_line_exits_3_with_one_line(self, blob_csv, fit_dir,
                                                    tmp_path, capsys, argv):
        draws = os.path.join(fit_dir, "draws.csv")
        argv = [a.format(data=blob_csv, draws=draws) for a in argv]
        if argv:
            argv += ["--out", str(tmp_path)]
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    # a sample text for the flag of every fit setting but data
    FLAG_TEXT = {"mode": ["sfm"], "k": ["3"], "gamma": ["0.5"],
                 "alpha": ["0.5"], "bnb": ["1,4,3"], "kmax": ["50"],
                 "kinit": ["5"], "iters": ["100"], "burnin": ["10"],
                 "thin": ["2"], "seed": ["7"], "c": ["2.5"], "phi": ["0.5"],
                 "store_assignments": [], "permute": [], "chains": ["2"],
                 "features": ["x,y"], "label_col": ["group"]}

    @pytest.mark.parametrize("name", [k for k in cli._CONFIG_KEYS
                                      if k != "data"])
    def test_flag_value_passes_the_config_check(self, name):
        flag = "--" + name.replace("_", "-")
        args = cli.build_parser().parse_args(
            ["fit", flag, *self.FLAG_TEXT[name]])
        value = getattr(args, name)
        valid = cli._CONFIG_KEYS[name][1][0]
        assert value is not None and valid(value)


class TestEvaluateCommand:

    def test_partition_against_truth(self, fit_dir, blob_csv, tmp_path):
        ident = str(tmp_path / "ident")
        assert main(["identify", os.path.join(fit_dir, "draws.csv"),
                     "--out", ident, "--no-vi"]) == 0
        part = os.path.join(ident, "partition_map.csv")
        out = str(tmp_path / "scores")
        rc = main(["evaluate", part, blob_csv, "--out", out])
        assert rc == 0
        with open(os.path.join(out, "metrics.json")) as fh:
            metrics = json.load(fh)
        assert metrics["ari"] == 1.0
        assert metrics["mcr"] == 0.0
        np.testing.assert_array_equal(metrics["confusion"],
                                      [[15, 0], [0, 25]])

    def test_partition_against_itself(self, fit_dir, tmp_path):
        ident = str(tmp_path / "ident")
        assert main(["identify", os.path.join(fit_dir, "draws.csv"),
                     "--out", ident, "--no-vi"]) == 0
        part = os.path.join(ident, "partition_map.csv")
        out = str(tmp_path / "self")
        rc = main(["evaluate", part, part, "--label-col", "label",
                   "--out", out])
        assert rc == 0
        with open(os.path.join(out, "metrics.json")) as fh:
            metrics = json.load(fh)
        assert metrics["ari"] == 1.0

    def test_row_mismatch_exits_2(self, fit_dir, tmp_path):
        ident = str(tmp_path / "ident")
        assert main(["identify", os.path.join(fit_dir, "draws.csv"),
                     "--out", ident, "--no-vi"]) == 0
        part = os.path.join(ident, "partition_map.csv")
        short = tmp_path / "short.csv"
        short.write_text("label\n1\n2\n")
        rc = main(["evaluate", part, str(short), "--out", str(tmp_path)])
        assert rc == 2

    @pytest.mark.parametrize("index", [("1", "1"), ("1", "3")],
                             ids=["duplicate", "gap"])
    def test_misaligned_partition_index_exits_2(self, tmp_path, capsys,
                                                index):
        part = tmp_path / "part.csv"
        part.write_text(f"index,label\n{index[0]},1\n{index[1]},2\n")
        truth = tmp_path / "truth.csv"
        truth.write_text("label\na\nb\n")
        rc = main(["evaluate", str(part), str(truth), "--out", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(part) in err

    def test_partition_without_index_column_is_read_in_order(self, tmp_path):
        part = tmp_path / "part.csv"
        part.write_text("label\n1\n2\n")
        truth = tmp_path / "truth.csv"
        truth.write_text("label\na\nb\n")
        assert main(["evaluate", str(part), str(truth),
                     "--out", str(tmp_path)]) == 0


# Runs in a fresh interpreter: imports bgmix.cli, then runs a single-chain
# sfm fit, identify, evaluate and an mfm fit in that one process, and
# reports after each whether scipy (and the process pool) is loaded
STARTUP_CHILD = """
import json, sys
from bgmix import cli
blobs, draws, out = sys.argv[1:]
seen, codes = {}, {}

def note(stage, code=0):
    codes[stage] = code
    seen[stage] = {name: name in sys.modules for name in
                   ("scipy", "numpy.ma", "concurrent.futures.process")}

note("import")
note("fit sfm", cli.main(["fit", blobs, "--mode", "sfm", "--k", "3",
                          "--iters", "30", "--burnin", "10",
                          "--out", out + "/sfm"]))
note("identify", cli.main(["identify", draws, "--out", out + "/ident"]))
note("evaluate", cli.main(["evaluate", out + "/ident/partition_map.csv",
                           blobs, "--out", out + "/eval"]))
run_chain = cli.run_chain

def probe(*args, **kwargs):
    note("mfm run_chain starts")
    return run_chain(*args, **kwargs)

cli.run_chain = probe
note("fit mfm", cli.main(["fit", blobs, "--mode", "mfm", "--kinit", "3",
                          "--iters", "30", "--burnin", "10",
                          "--out", out + "/mfm"]))
print(json.dumps({"seen": seen, "codes": codes}))
"""


def test_no_stage_loads_scipy_or_numpy_ma(blob_csv, fit_dir, tmp_path):
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", STARTUP_CHILD, blob_csv,
         os.path.join(fit_dir, "draws.csv"), str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(report["codes"].values()) == {0}
    seen = report["seen"]
    # log-gamma comes from math.lgamma, so not even the mfm fit loads it
    assert seen.keys() == {"import", "fit sfm", "identify", "evaluate",
                           "mfm run_chain starts", "fit mfm"}
    for stage, loaded in seen.items():
        assert not loaded["scipy"], stage
        # np.median and a flag-less np.unique would import it
        assert not loaded["numpy.ma"], stage
    # single-chain fits never import the process pool
    assert not any(s["concurrent.futures.process"] for s in seen.values())


def test_closed_stdout_exits_1_without_traceback(tmp_path):
    part = tmp_path / "part.csv"
    part.write_text("label\n1\n2\n")
    truth = tmp_path / "truth.csv"
    truth.write_text("label\na\nb\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    read_end, write_end = os.pipe()
    os.close(read_end)           # the reader is gone before the child writes
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "bgmix.cli", "evaluate", str(part),
             str(truth), "--out", str(tmp_path / "eval")],
            env=env, stdout=write_end, stderr=subprocess.PIPE, text=True,
            timeout=120)
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert "BrokenPipeError" not in proc.stderr
