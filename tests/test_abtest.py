"""The claim rule of `tools/abtest.py`, on hand-made rounds."""

import importlib.util
import os

import pytest

_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools", "abtest.py")
_spec = importlib.util.spec_from_file_location("abtest", _PATH)
abtest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(abtest)

BASE = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.7, 99.3, 100.1]  # quartile spread 0.85


@pytest.mark.parametrize("higher_is_better", [True, False])
def test_ten_of_ten_with_a_wide_gap_holds(higher_is_better):
    step = 5.0 if higher_is_better else -5.0
    v = abtest.verdict(BASE, [b + step for b in BASE], higher_is_better)
    assert v["wins"] == 10 and v["rounds"] == 10
    assert v["median_gap"] == pytest.approx(5.0) and v["base_spread"] == pytest.approx(0.85)
    assert v["holds"]


def test_eight_of_ten_fails_however_wide_the_gap():
    change = [b + 5.0 for b in BASE[:8]] + [b - 5.0 for b in BASE[8:]]
    v = abtest.verdict(BASE, change, True)
    assert v["wins"] == 8 and v["median_gap"] > v["base_spread"]
    assert not v["holds"]


def test_ten_of_ten_inside_the_base_spread_fails():
    v = abtest.verdict(BASE, [b + 0.5 for b in BASE], True)
    assert v["wins"] == 10 and 0 < v["median_gap"] < v["base_spread"]
    assert not v["holds"]


def test_a_worse_change_fails_in_either_direction():
    assert not abtest.verdict(BASE, [b - 5.0 for b in BASE], True)["holds"]
    assert not abtest.verdict(BASE, [b + 5.0 for b in BASE], False)["holds"]
