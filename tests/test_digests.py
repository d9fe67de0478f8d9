"""Pinned-seed digests of short `bgmix fit` and `bgmix identify` runs.

A refactor that leaves every sweep step alone must leave these bytes alone
too: the draws, assignments and trace files of a pinned-seed chain in each
of the three modes and in fixed-k with the label permutation step, and the
four CSV files `identify --seed 0` writes from them, are compared by
SHA-256 against values recorded before the refactor. trace.csv holds each
sweep's log-likelihood, whose last bits follow the density kernel's
arithmetic, so a faster kernel may re-record those four digests alone; a
changed draws, assignments or identify digest means a changed chain. The
mfm chain changed once on purpose, so its seven digests were re-recorded:
its C0 update moved ahead of the K update and the empty components, the
order of the telescoping sampler (see sampler.sweep). When the state came
to carry each covariance as its Wishart draw's precision factor, the
floats of every chain moved in their last bits while every assignment,
K+ distribution and partition stayed the same: the draws.csv, trace.csv
and cluster_summary.csv digests of all four runs were re-recorded.
numpy does not promise the same Generator streams across versions, so the
test skips when numpy's major.minor version differs from the recording one.
"""

import hashlib
import os

import numpy as np
import pytest

from bgmix.cli import main

DATA_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "data",
                         "diabetes.csv")

# recorded with numpy 2.4.6 on Python 3.11.7
NUMPY_MAJOR_MINOR = "2.4"

DIGESTS = {
    "fixed-k": (["--mode", "fixed-k", "--k", "3"], {
        "draws.csv": "ed7c50bb7242fd7ddaf33fb7618f8436"
                     "e095da3d9ca09fe33ea614d368a6d25a",
        "assignments.csv": "9ec8d11b579aa6b5b975520de3d75bec"
                           "812da3bc8300a5433f72ea9a755eaac3",
        "trace.csv": "7384164be913ed7b1df2faf0449cde3a"
                     "95560cbaae68b4beafce8bc252777510",
    }, {
        "kplus_distribution.csv": "f15bcdba2dd6be8ba8eec29ab3b6281f"
                                  "7924d445e893fa79d69521bfead5c5ba",
        "cluster_summary.csv": "d53f854c0c9eff69f0793f346bf464c4"
                               "00e675c41d06a2e6d7f633191d5f107e",
        "partition_map.csv": "05377d1126db4245d35537eb29938288"
                             "83755a1538f70c57e8b0012f2f2dc7f2",
        "partition_vi.csv": "1a037ccfdbeaec3c9b75413f70aa4b7e"
                            "bdadacb1a20bda013a3a166246ab231e",
    }),
    "fixed-k-permute": (["--mode", "fixed-k", "--k", "3", "--permute"], {
        "draws.csv": "09c85c60e0ba5235923e61b89e67e54a"
                     "5ba1a3d36ad09204116fcaf3d23b9647",
        "assignments.csv": "ed7d7b6128edde2d91a732913b391b0a"
                           "1c28565eec9e287984abcbac232f7e11",
        "trace.csv": "79326c0dba46b5f799e19fc9e0499a0b"
                     "37d7d1fe362c450ed44b25f304564356",
    }, {
        "kplus_distribution.csv": "f15bcdba2dd6be8ba8eec29ab3b6281f"
                                  "7924d445e893fa79d69521bfead5c5ba",
        "cluster_summary.csv": "d33481f28495f9425387ea8ca5effc00"
                               "410044c7c3f7d34ce6928942f8f4765a",
        "partition_map.csv": "2e564adb0b4f5f1bb31775235ede260d"
                             "48e1c20140bcb2c007877fda8b400349",
        "partition_vi.csv": "57c75ed95fb88dc311d126356c854efc"
                            "36e7274de744bc43a829b3e7f2ff257d",
    }),
    "sfm": (["--mode", "sfm", "--k", "10", "--gamma", "0.01"], {
        "draws.csv": "547908cb27ce9ac5a36a31bc29b3b54e"
                     "c38f7cace2dab540e8dc4b9908cce191",
        "assignments.csv": "66c77d7cd26d21db7fe4319b78d7c772"
                           "0497fc9d9c0c8c65cec11e35588412b2",
        "trace.csv": "a4bcd5a83828f02b9c9562c96b52e6d3"
                     "428e57a3159e60ba0e7edf4fbacdb918",
    }, {
        "kplus_distribution.csv": "748bf61706ed83c561a776d686ac52f6"
                                  "59257aefa0e16800be627939c40bb7cb",
        "cluster_summary.csv": "53a1b742447d77528f36f7a17a0ba41f"
                               "0c31c8bd1dec959558dc7a695e9f9fd5",
        "partition_map.csv": "efa9906d4d58e4344d5339f3da1c5e5c"
                             "f232dfa7eec88b6f30ff652c4e3211c9",
        "partition_vi.csv": "9c534b805224cc0d068c06e14071931c"
                            "9a1db7f9f8e9cf0946319e936995f591",
    }),
    "mfm": (["--mode", "mfm", "--kinit", "10"], {
        "draws.csv": "f1c58075760754bf0502ea3f52a0785e"
                     "efdde6276f03d3282741544a33cba654",
        "assignments.csv": "d7c3f396e776892d6b5925d149ce094a"
                           "3d56b25408901565055c72ff8075fd3f",
        "trace.csv": "5f68952bde8ea602daacaf60aff1dbfc"
                     "6f0c80bc3b9a27cb106f647bc8095399",
    }, {
        "kplus_distribution.csv": "30b949db4b4d9d2bbf23b78a7034bfb6"
                                  "28b7c7e5b6789f1ed2804777cedaf4eb",
        "cluster_summary.csv": "94236d09aa8bb3d710d993bb49718498"
                               "0b10a68015ad69f69bd217a32fbd1517",
        "partition_map.csv": "dedea74c52d6d01d2defe8381c461a95"
                             "2511cb4d249d378fee46eaca78ee8363",
        "partition_vi.csv": "06b0b692b6f250e4775390766c384370"
                            "4cb99c8577a11cda11931f49659d6965",
    }),
}


def _sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


@pytest.mark.skipif(
    ".".join(np.__version__.split(".")[:2]) != NUMPY_MAJOR_MINOR,
    reason=f"digests were recorded with numpy {NUMPY_MAJOR_MINOR}.x; "
           f"Generator streams may differ under numpy {np.__version__}")
@pytest.mark.parametrize("mode", sorted(DIGESTS))
def test_fit_artifacts_match_pinned_digests(mode, tmp_path):
    flags, expected, expected_identify = DIGESTS[mode]
    rc = main(["fit", DATA_PATH, "--out", str(tmp_path), "--iters", "300",
               "--burnin", "100", "--seed", "7"] + flags)
    assert rc == 0
    got = {name: _sha256(tmp_path / name) for name in expected}
    assert got == expected

    rc = main(["identify", str(tmp_path / "draws.csv"), "--seed", "0",
               "--out", str(tmp_path / "identify")])
    assert rc == 0
    got = {name: _sha256(tmp_path / "identify" / name)
           for name in expected_identify}
    assert got == expected_identify
