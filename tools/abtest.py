"""A/B timing of two sbtrack checkouts on the benchmark's workloads.

    python3 tools/abtest.py BASE CHANGE --workload track_tiny [--rounds 10] [--json BENCH_x.json]

BASE and CHANGE are repository roots.  A round runs the benchmark's command
from ``BENCHMARK.json`` (``benchmark/run.py --workload W --seed S --seconds T
--trace 0``) once from each checkout's root, each in its own process, and
the side that runs first switches every round, so that drift of the host
(frequency, other tenants) falls on both sides alike.  Every end-to-end
metric comes from a run's final JSON line, so per-process effects such as
memory layout vary across rounds as they do across the benchmark's runs.

The output gives, per metric, each side's median and quartiles over the
rounds, the number of rounds the change was better, and the verdict of the
claim rule (`verdict`), with the better direction and the bound of each
metric read from ``BENCHMARK.json``.  A metric is unresolved when either
side's quartile spread exceeds its bound (relative to that side's median).
It also gives each side's failed frames or steps.  ``--json PATH`` also
writes all of it, every run's final JSON line included.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("base", "change")


def quartiles(xs: list) -> tuple[float, float, float]:
    """First quartile, median and third quartile of `xs`."""
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def verdict(base: list, change: list, higher_is_better: bool) -> dict:
    """The claim rule on one figure's per-round values, paired by round:
    the change is better in at least 9 of every 10 rounds, and its median
    is better than the base's by more than the base's quartile spread."""
    sign = 1.0 if higher_is_better else -1.0
    wins = sum(bool(sign * (c - b) > 0) for b, c in zip(base, change))
    q1, med, q3 = quartiles(base)
    gap = float(sign * (statistics.median(change) - med))
    return {"wins": wins, "rounds": len(base), "median_gap": gap, "base_spread": float(q3 - q1),
            "holds": 10 * wins >= 9 * len(base) and gap > q3 - q1}


def summarize(figures: dict, end_to_end: list) -> dict:
    """Per figure of `figures` (figure -> side -> per-round values): the
    better direction and bound from `end_to_end` (BENCHMARK.json's list),
    each side's median and quartiles, the verdict, and whether a side's
    quartile spread over its median exceeds the bound ("unresolved")."""
    spec = {m["name"]: m for m in end_to_end}
    out = {}
    for fig, per_side in figures.items():
        higher, bound = spec[fig]["better"] == "higher", spec[fig]["bound"]
        entry = {"higher_is_better": higher, "bound": bound, "rounds": per_side, "unresolved": False}
        for name in SIDES:
            q1, q2, q3 = quartiles(per_side[name])
            entry[name] = {"median": q2, "q1": q1, "q3": q3}
            if q3 - q1 > bound * abs(q2):
                entry["unresolved"] = True
        entry["verdict"] = verdict(per_side["base"], per_side["change"], higher)
        out[fig] = entry
    return out


def figures_of(lines: dict) -> dict:
    """Figure -> side -> per-round values, from each side's final JSON lines
    of `benchmark/run.py --trace 0`."""
    names = lines["base"][0]["metrics"]
    return {fig: {name: [float(line["metrics"][fig]["value"]) for line in lines[name]]
                  for name in SIDES} for fig in names}


def run_process(command: list, root: str, args) -> dict:
    """One benchmark run from the checkout at `root`; returns its final JSON line."""
    argv = [*command, "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", repr(args.seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=root, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"error: {' '.join(argv)} in {root} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.splitlines()[-1])


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base", help="root of the base checkout")
    ap.add_argument("change", help="root of the changed checkout")
    ap.add_argument("--workload", choices=[w["name"] for w in bench["workloads"]], required=True)
    ap.add_argument("--rounds", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"],
                    help="loop window per side and round (default: BENCHMARK.json's run_seconds)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--json", metavar="PATH", help="also write every round and the verdicts here")
    args = ap.parse_args(argv)
    if args.rounds < 2:
        ap.error("--rounds must be at least 2")
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    roots = {"base": args.base, "change": args.change}
    lines = {name: [] for name in SIDES}
    first = []
    order = list(SIDES)
    for _ in range(args.rounds):
        first.append(order[0])
        for name in order:
            lines[name].append(run_process(bench["command"], roots[name], args))
        order.reverse()
    failed = {name: sum(line["failed"] for line in lines[name]) for name in SIDES}

    unit = "pairs" if args.workload.startswith("train") else "frames"
    print(f"{args.workload}: {args.rounds} rounds of {args.seconds:g} s per side, one process "
          f"each; throughput in {unit} per CPU second, latencies in CPU ms")
    report = {"workload": args.workload, "rounds": args.rounds, "seconds": args.seconds,
              "seed": args.seed, "first": first, "failed": failed, "lines": lines,
              "figures": summarize(figures_of(lines), bench["end_to_end"])}
    for fig, entry in report["figures"].items():
        for name in SIDES:
            q = entry[name]
            print(f"  {fig:20s} {name:7s} median {q['median']:8.4g}   "
                  f"quartiles {q['q1']:8.4g} .. {q['q3']:8.4g}")
        v = entry["verdict"]
        print(f"  {fig:20s} change better in {v['wins']} of {v['rounds']} rounds; median gap "
              f"{v['median_gap']:+.4g} against the base's quartile spread {v['base_spread']:.4g}: "
              f"claim {'holds' if v['holds'] else 'does not hold'}"
              + (f"; unresolved, a side's quartile spread exceeds the {entry['bound']:g} bound"
                 if entry["unresolved"] else ""))
    print(f"  failed: base {failed['base']}, change {failed['change']}")
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
