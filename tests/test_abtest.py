"""The claim rule and the process-mode summary of `tools/abtest.py`, on
hand-made rounds and result lines."""

import importlib.util
import json
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


def result_line(**values):
    """A final JSON line of `benchmark/run.py --trace 0`, with the given metric values."""
    return {"correct": True, "attempted": 100, "failed": 0,
            "metrics": {name: {"value": v, "unit": "-"} for name, v in values.items()}}


with open(os.path.join(os.path.dirname(_PATH), os.pardir, "BENCHMARK.json")) as _fh:
    END_TO_END = json.load(_fh)["end_to_end"]


def test_process_summary_reads_directions_and_bounds_from_the_benchmark():
    base_rss, change_rss = [119.8, 120.1, 119.3, 119.9, 120.0], [46.5, 46.6, 46.4, 46.5, 46.7]
    base_setup, change_setup = [0.030, 0.031, 0.050, 0.029, 0.030], [0.020, 0.021, 0.020, 0.022, 0.021]
    base_rate, change_rate = [139.0, 138.5, 139.5, 140.0, 138.0], [139.2, 138.0, 139.9, 139.0, 138.9]
    lines = {
        "base": [result_line(peak_rss_mb=r, setup_s=s, throughput_per_cpu_s=t)
                 for r, s, t in zip(base_rss, base_setup, base_rate)],
        "change": [result_line(peak_rss_mb=r, setup_s=s, throughput_per_cpu_s=t)
                   for r, s, t in zip(change_rss, change_setup, change_rate)],
    }
    figures = abtest.figures_of(lines)
    assert figures["peak_rss_mb"] == {"base": base_rss, "change": change_rss}
    summary = abtest.summarize(figures, END_TO_END)
    assert set(summary) == {"peak_rss_mb", "setup_s", "throughput_per_cpu_s"}

    rss = summary["peak_rss_mb"]
    assert not rss["higher_is_better"] and rss["bound"] == 0.1
    assert rss["base"] == {"median": 119.9, "q1": 119.8, "q3": 120.0}
    assert rss["verdict"]["wins"] == 5 and rss["verdict"]["holds"] and not rss["unresolved"]

    # the base's quartiles 0.030 .. 0.031 are within 25% of its median, and the
    # outlier of 0.050 falls outside them
    assert summary["setup_s"]["verdict"]["holds"] and not summary["setup_s"]["unresolved"]

    rate = summary["throughput_per_cpu_s"]
    assert rate["higher_is_better"] and rate["verdict"]["wins"] == 3 and not rate["verdict"]["holds"]


def test_a_spread_wider_than_the_bound_is_unresolved():
    # base quartiles 0.025 .. 0.034 around 0.030 spread 30% > the 25% bound of setup_s
    lines = {"base": [result_line(setup_s=s) for s in (0.021, 0.025, 0.030, 0.034, 0.040)],
             "change": [result_line(setup_s=s) for s in (0.030, 0.030, 0.031, 0.031, 0.031)]}
    entry = abtest.summarize(abtest.figures_of(lines), END_TO_END)["setup_s"]
    assert entry["unresolved"] and entry["bound"] == 0.25
    # and so is one whose change side alone spreads wider than its bound
    lines["base"], lines["change"] = lines["change"], lines["base"]
    assert abtest.summarize(abtest.figures_of(lines), END_TO_END)["setup_s"]["unresolved"]
