"""Smoke test of scripts/geweke.py: it runs both sweeps on a few draws.

The check itself needs about 300000 draws per sweep (minutes), too slow
for this suite; here only its output format is checked.
"""

import importlib.util
import os

import numpy as np
import pytest

SCRIPT = os.path.join(os.path.dirname(__file__), os.pardir, "scripts",
                      "geweke.py")


@pytest.fixture(scope="module")
def geweke():
    spec = importlib.util.spec_from_file_location("geweke", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("flags", [["--sweep", "fixed"],
                                   ["--sweep", "telescoping", "--permute"]])
def test_prints_a_z_score_per_function(geweke, capsys, flags):
    geweke.main(flags + ["--draws", "400", "--seed", "1"])
    lines = capsys.readouterr().out.splitlines()[2:]
    # a name column 14 wide, then the two means and z
    assert [line[:14].strip() for line in lines] == list(geweke.FUNCTIONS)
    for line in lines:
        values = [float(v) for v in line[14:].split()[:3]]
        assert np.all(np.isfinite(values))
