"""The paired verdict of scripts/ab.py on hand-made per-round times."""

import importlib.util
import os

import pytest

SCRIPT = os.path.join(os.path.dirname(__file__), os.pardir, "scripts",
                      "ab.py")


@pytest.fixture(scope="module")
def ab():
    spec = importlib.util.spec_from_file_location("ab", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_clear_gain_holds(ab):
    parent = [100.0, 102.0, 98.0, 101.0, 99.0, 100.0, 103.0, 97.0, 100.0,
              101.0]
    change = [p * 0.8 for p in parent]
    verdict = ab.paired_verdict(parent, change)
    assert verdict["wins"] == verdict["pairs"] == 10
    assert verdict["ratios"] == pytest.approx([0.8] * 10)
    assert verdict["parent_iqr"] == pytest.approx(101.0 - 99.25)
    assert verdict["median_gap"] == pytest.approx(20.0)
    assert verdict["claim_holds"]


def test_too_few_wins_fails(ab):
    """Eight wins in ten pairs fail the nine-tenths rule, whatever the gap."""
    parent = [100.0] * 10
    change = [50.0] * 8 + [100.0, 120.0]
    verdict = ab.paired_verdict(parent, change)
    assert verdict["wins"] == 8
    assert not verdict["claim_holds"]


def test_gap_within_the_parents_spread_fails(ab):
    """Every pair won, but by less than the parent's interquartile range."""
    parent = [80.0, 90.0, 100.0, 110.0, 120.0, 80.0, 90.0, 100.0, 110.0,
              120.0]
    change = [p - 5.0 for p in parent]
    verdict = ab.paired_verdict(parent, change)
    assert verdict["wins"] == 10
    assert verdict["median_gap"] == pytest.approx(5.0)
    assert verdict["parent_iqr"] == pytest.approx(20.0)
    assert not verdict["claim_holds"]
