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
order of the telescoping sampler (see sampler.sweep).
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
        "draws.csv": "6fe7359d3644b68ddaecd516ef015039"
                     "ebe0fabbb0e95c1ea520a0e6c74be544",
        "assignments.csv": "9ec8d11b579aa6b5b975520de3d75bec"
                           "812da3bc8300a5433f72ea9a755eaac3",
        "trace.csv": "f195bb7bef8ffa47157aef19ca6e9edd"
                     "f17198414abd902c5841d8e5a96ecaf8",
    }, {
        "kplus_distribution.csv": "f15bcdba2dd6be8ba8eec29ab3b6281f"
                                  "7924d445e893fa79d69521bfead5c5ba",
        "cluster_summary.csv": "0bb6e1633a480164d69f4c5cbcab4de1"
                               "7bf9e4175e678e9a4232c8b5a06d65f8",
        "partition_map.csv": "05377d1126db4245d35537eb29938288"
                             "83755a1538f70c57e8b0012f2f2dc7f2",
        "partition_vi.csv": "1a037ccfdbeaec3c9b75413f70aa4b7e"
                            "bdadacb1a20bda013a3a166246ab231e",
    }),
    "fixed-k-permute": (["--mode", "fixed-k", "--k", "3", "--permute"], {
        "draws.csv": "84ae461c71b9a4a08b3ad351c51bb997"
                     "803aa8391d21aadbde1d75229e657939",
        "assignments.csv": "ed7d7b6128edde2d91a732913b391b0a"
                           "1c28565eec9e287984abcbac232f7e11",
        "trace.csv": "3d296c7ef6d3785d468085684e83783a"
                     "2515e72902bc3d763ffe8260228c64c3",
    }, {
        "kplus_distribution.csv": "f15bcdba2dd6be8ba8eec29ab3b6281f"
                                  "7924d445e893fa79d69521bfead5c5ba",
        "cluster_summary.csv": "892013f9d9c0382ee2198d67a6349e36"
                               "80cb3b46aa12252b816f5ed6734d5f3f",
        "partition_map.csv": "2e564adb0b4f5f1bb31775235ede260d"
                             "48e1c20140bcb2c007877fda8b400349",
        "partition_vi.csv": "57c75ed95fb88dc311d126356c854efc"
                            "36e7274de744bc43a829b3e7f2ff257d",
    }),
    "sfm": (["--mode", "sfm", "--k", "10", "--gamma", "0.01"], {
        "draws.csv": "484fd91ce727a66bc967e254c7650e6e"
                     "2e05a5fcfd69c9bc204401c2f27fe592",
        "assignments.csv": "66c77d7cd26d21db7fe4319b78d7c772"
                           "0497fc9d9c0c8c65cec11e35588412b2",
        "trace.csv": "030095e2fbb2d760ffeef931f910e998"
                     "7e9a681ff82166f6b1bef1bdcecffa40",
    }, {
        "kplus_distribution.csv": "748bf61706ed83c561a776d686ac52f6"
                                  "59257aefa0e16800be627939c40bb7cb",
        "cluster_summary.csv": "ababb32d3a1a070a73dc79ed73b4e1e9"
                               "8cc1c99af7aa5361e6a378bb0eb7caf5",
        "partition_map.csv": "efa9906d4d58e4344d5339f3da1c5e5c"
                             "f232dfa7eec88b6f30ff652c4e3211c9",
        "partition_vi.csv": "9c534b805224cc0d068c06e14071931c"
                            "9a1db7f9f8e9cf0946319e936995f591",
    }),
    "mfm": (["--mode", "mfm", "--kinit", "10"], {
        "draws.csv": "b07d3f0225b1989634303e84b0dd1579"
                     "7980d36250d78055536eb0588c133b78",
        "assignments.csv": "d7c3f396e776892d6b5925d149ce094a"
                           "3d56b25408901565055c72ff8075fd3f",
        "trace.csv": "58b7063f0ec95ad34cfda877af56faa2"
                     "8da499a8ff1dafd8974af8f4383a040e",
    }, {
        "kplus_distribution.csv": "30b949db4b4d9d2bbf23b78a7034bfb6"
                                  "28b7c7e5b6789f1ed2804777cedaf4eb",
        "cluster_summary.csv": "0da50eee2fd2239171e9330d626360e9"
                               "7a3050499b445cb8a139a8e7ca62fb00",
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
