"""Pinned-seed digests of short `bgmix fit` runs in all three modes.

A refactor that leaves every sweep step alone must leave these bytes alone
too: the draws, assignments and trace files of a pinned-seed chain are
compared by SHA-256 against values recorded before the refactor. numpy
does not promise the same Generator streams across versions, so the test
skips when numpy's major.minor version differs from the recording one.
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
        "trace.csv": "db210023cb21a0427f70f0aa119d2940"
                     "a3b8c97cb1a1c8b83aeebb5246efb993",
    }),
    "sfm": (["--mode", "sfm", "--k", "10", "--gamma", "0.01"], {
        "draws.csv": "484fd91ce727a66bc967e254c7650e6e"
                     "2e05a5fcfd69c9bc204401c2f27fe592",
        "assignments.csv": "66c77d7cd26d21db7fe4319b78d7c772"
                           "0497fc9d9c0c8c65cec11e35588412b2",
        "trace.csv": "3214d67987e9fc08ff70235a71734a2c"
                     "dc77a91797051d435f3c9bc6dd711126",
    }),
    "mfm": (["--mode", "mfm", "--kinit", "10"], {
        "draws.csv": "44896e252a2a0fb4d5891645aa2b8585"
                     "5e9775d5d6e3ee05e21bae284ec6c172",
        "assignments.csv": "6648ed640e48e0fe379b6035b180e9f4"
                           "594b74b1859b4d15a88c81186f56d0df",
        "trace.csv": "d77bd1575eef0e52e4f390bdf3c1178a"
                     "a10a067a3124976be12baecf46e19ae1",
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
    flags, expected = DIGESTS[mode]
    rc = main(["fit", DATA_PATH, "--out", str(tmp_path), "--iters", "300",
               "--burnin", "100", "--seed", "7"] + flags)
    assert rc == 0
    got = {name: _sha256(tmp_path / name) for name in expected}
    assert got == expected
