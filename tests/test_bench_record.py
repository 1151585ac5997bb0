"""The paired-run verdict of bench/record.py."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "bench" / "record.py"
_SPEC = importlib.util.spec_from_file_location("bench_record", _PATH)
record = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(record)


def test_gain_needs_every_pair_and_medians_past_the_parent_spread():
    parent = [1400.0, 1430.0, 1410.0, 1420.0, 1440.0]
    out = record.compare(parent, [2200.0, 2250.0, 2180.0, 2230.0, 2260.0], True, 0.25)
    assert (out["verdict"], out["pairs_won"], out["pairs_lost"]) == ("gain", 5, 0)
    assert out["parent_median"] == 1420.0 and out["parent_quartiles"] == [1410.0, 1430.0]
    assert out["relative_change"] == pytest.approx(2230.0 / 1420.0 - 1.0)
    assert out["within_bound"]
    # one lost pair makes a tie, however far apart the medians are
    out = record.compare(parent, [2200.0, 2250.0, 2180.0, 2230.0, 1300.0], True, 0.25)
    assert (out["verdict"], out["pairs_won"], out["pairs_lost"]) == ("tie", 4, 1)
    # every pair won, but by less than the parent's own quartile spread
    out = record.compare(parent, [v + 5.0 for v in parent], True, 0.25)
    assert out["verdict"] == "tie" and out["pairs_won"] == 5
    # an identical change is a tie with no pair won or lost
    out = record.compare(parent, list(parent), True, 0.25)
    assert (out["verdict"], out["pairs_won"], out["pairs_lost"]) == ("tie", 0, 0)


def test_lower_is_better_and_the_bound_is_relative_to_the_parent():
    parent = [0.66, 0.65, 0.67]
    out = record.compare(parent, [0.41, 0.40, 0.42], False, 0.25)
    assert out["verdict"] == "gain" and out["within_bound"]
    out = record.compare(parent, [0.90, 0.91, 0.92], False, 0.25)
    assert out["verdict"] == "loss" and not out["within_bound"]
    out = record.compare(parent, [0.80, 0.81, 0.79], False, 0.25)
    assert out["verdict"] == "loss" and out["within_bound"]
    # one pair: its quartiles are its value
    assert record.compare([1.0], [0.5], False, 0.25)["parent_quartiles"] == [1.0, 1.0]
