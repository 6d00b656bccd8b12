"""The claim rule, the summary and the process rounds of `tools/abtest.py`,
on hand-made rounds and result lines, with a fake `subprocess.run`."""

import argparse
import importlib.util
import json
import os
import subprocess

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


COMMAND = ["python3", "benchmark/run.py"]


def fake_run(calls, returncode=0, metrics=None):
    """A `subprocess.run` that records each call and prints a result line."""
    line = result_line(**(metrics or {}))

    def run(argv, **kwargs):
        calls.append((argv, kwargs))
        stdout = json.dumps({"info": {}}) + "\n" + json.dumps(line) + "\n"
        return subprocess.CompletedProcess(argv, returncode, stdout=stdout, stderr="boom")

    return run


def test_run_process_runs_the_benchmark_command_from_the_checkout_root(monkeypatch):
    calls = []
    monkeypatch.setattr(abtest.subprocess, "run", fake_run(calls, metrics={"setup_s": 0.03}))
    args = argparse.Namespace(workload="track_light", seed=3, seconds=2.5)
    line = abtest.run_process(COMMAND, "/ckpt/base", args)
    assert line == result_line(setup_s=0.03)
    [(argv, kwargs)] = calls
    assert argv == [*COMMAND, "--workload", "track_light", "--seed", "3", "--seconds", "2.5",
                    "--trace", "0"]
    assert kwargs["cwd"] == "/ckpt/base"


def test_a_failed_run_names_its_root(monkeypatch):
    monkeypatch.setattr(abtest.subprocess, "run", fake_run([], returncode=1))
    args = argparse.Namespace(workload="train_tiny", seed=1, seconds=1.0)
    with pytest.raises(SystemExit, match="in /ckpt/change exited 1"):
        abtest.run_process(COMMAND, "/ckpt/change", args)


def test_workload_must_be_one_of_the_benchmark(monkeypatch, capsys):
    calls = []
    monkeypatch.setattr(abtest.subprocess, "run", fake_run(calls))
    with pytest.raises(SystemExit) as exc:
        abtest.main(["/ckpt/base", "/ckpt/change", "--workload", "track_huge"])
    assert exc.value.code == 2 and "track_huge" in capsys.readouterr().err
    assert calls == []


def test_rounds_alternate_which_side_runs_first(monkeypatch, tmp_path):
    calls = []
    metrics = {m["name"]: 1.0 for m in END_TO_END}
    monkeypatch.setattr(abtest.subprocess, "run", fake_run(calls, metrics=metrics))
    out = tmp_path / "ab.json"
    assert abtest.main(["/ckpt/base", "/ckpt/change", "--workload", "track_tiny", "--rounds", "3",
                        "--json", str(out)]) == 0
    assert [kw["cwd"] for _, kw in calls] == ["/ckpt/base", "/ckpt/change", "/ckpt/change",
                                              "/ckpt/base", "/ckpt/base", "/ckpt/change"]
    report = json.loads(out.read_text())
    assert report["first"] == ["base", "change", "base"]
    assert set(report["figures"]) == set(metrics)
    assert report["failed"] == {"base": 0, "change": 0}
