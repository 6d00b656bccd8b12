"""A/B timing of two sbtrack checkouts on the benchmark's workloads.

    python3 tools/abtest.py BASE CHANGE --workload train_tiny --rounds 14 [--json BENCH_x.json]
    python3 tools/abtest.py BASE CHANGE --workload track_tiny --rounds 5 --seconds 33 --processes

BASE and CHANGE are repository roots.  By default the script loads
``src/sbtrack`` of each as its own package (``sbtrack_base``,
``sbtrack_change``) into one process and runs the benchmark of this checkout
on both: each side is set up as ``benchmark/run.py`` sets it up (the
workload from ``benchmark/loops.py``, a checkpoint written and loaded, the
scene suite and training pairs), warmed up, and then timed in rounds.  A
round runs the benchmark's closed loop for ``--seconds`` on each side, and
the side that runs first switches every round, so that drift of the host
(frequency, other tenants) falls on both sides alike.  Before each round a
side's weights are reset to the loaded ones.  A round gives two figures per
side, as ``run.py`` reports them: the loop's ``throughput_per_cpu_s``
(frames, or training pairs, per CPU second, with BLAS on one thread) and its
``latency_cpu_ms_p50`` (the median CPU time per frame or step).

``--processes`` measures what only a whole process shows, such as
``peak_rss_mb`` and ``setup_s``: a round runs the benchmark's command from
``BENCHMARK.json`` (``benchmark/run.py --workload W --seed S --seconds T
--trace 0``) once from each checkout's root, again switching which side goes
first, and takes every end-to-end metric from its final JSON line.

The output gives, per figure, each side's median and quartiles over the
rounds, the number of rounds the change was better, and the verdict of the
claim rule (`verdict`), with the better direction and the bound of each
figure read from ``BENCHMARK.json``.  A figure is unresolved when either
side's quartile spread exceeds its bound (relative to that side's median).
It also gives each side's failed frames or steps.  ``--json PATH`` also
writes all of it, every round's figures (and, with ``--processes``, every
final JSON line) included.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import json
import os
import statistics
import subprocess
import sys
import tempfile
from types import SimpleNamespace

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCHMARK_DIR = os.path.join(ROOT, "benchmark")
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


def load(run, root: str, name: str) -> SimpleNamespace:
    """Import ``root/src/sbtrack`` as package `name`; returns the namespace
    of its modules that the benchmark's loops take."""
    pkg_dir = os.path.join(os.path.abspath(root), "src", "sbtrack")
    init = os.path.join(pkg_dir, "__init__.py")
    if not os.path.isfile(init):
        raise SystemExit(f"error: no sbtrack package under {root}")
    spec = importlib.util.spec_from_file_location(name, init, submodule_search_locations=[pkg_dir])
    sys.modules[name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sys.modules[name])
    mods = {m: importlib.import_module(f"{name}.{m}") for m in run.MODULES}
    return SimpleNamespace(modules=list(mods.values()), **mods)


def make_side(loops, sb, w, seed: int, seconds: float):
    """Set up and warm up one side; returns a function that runs one round
    and gives its loop result."""
    with tempfile.TemporaryDirectory() as ckpt_dir:
        made, _ = loops._timed_setups(sb, w, seed, ckpt_dir, 1)
    loops._warm_up(sb, w, seed, made)
    params = made[0].parameters()
    initial = [p.data.copy() for p in params]

    def round_():
        for p, a in zip(params, initial):
            p.data[...] = a
        return loops._loop(sb, w, seed, seconds, made)

    return round_


def main(argv=None) -> int:
    sys.path.insert(0, BENCHMARK_DIR)
    import run

    run.limit_blas_threads()  # before numpy is imported
    import loops

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base", help="root of the base checkout")
    ap.add_argument("change", help="root of the changed checkout")
    ap.add_argument("--workload", choices=sorted(loops.WORKLOADS), required=True)
    ap.add_argument("--rounds", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=5.0, help="loop window per side and round")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--json", metavar="PATH", help="also write every round and the verdicts here")
    ap.add_argument("--processes", action="store_true",
                    help="run benchmark/run.py once per side and round, in its own process")
    args = ap.parse_args(argv)
    if args.rounds < 2:
        ap.error("--rounds must be at least 2")
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    w = loops.WORKLOADS[args.workload]
    roots = {"base": args.base, "change": args.change}
    report = {"workload": args.workload, "rounds": args.rounds, "seconds": args.seconds,
              "seed": args.seed, "processes": args.processes}
    if args.processes:
        lines = {name: [] for name in SIDES}

        def one_round(name):
            lines[name].append(run_process(bench["command"], roots[name], args))
    else:
        sides = {name: make_side(loops, load(run, roots[name], f"sbtrack_{name}"), w, args.seed,
                                 args.seconds) for name in SIDES}
        figures = {fig: {name: [] for name in SIDES}
                   for fig in ("throughput_per_cpu_s", "latency_cpu_ms_p50")}
        failed = dict.fromkeys(SIDES, 0)

        def one_round(name):
            r = sides[name]()
            figures["throughput_per_cpu_s"][name].append(r.rate)
            # with no completed frame or step, the whole window is the latency bound
            p50 = statistics.median(r.latencies_s or [r.cpu_s])
            figures["latency_cpu_ms_p50"][name].append(float(p50) * 1e3)
            failed[name] += r.failed

    first = []
    order = list(SIDES)
    for _ in range(args.rounds):
        first.append(order[0])
        for name in order:
            one_round(name)
        order.reverse()
    if args.processes:
        figures = figures_of(lines)
        failed = {name: sum(line["failed"] for line in lines[name]) for name in SIDES}
        report["lines"] = lines

    unit = "frames" if w.kind == "track" else "pairs"
    print(f"{args.workload}: {args.rounds} rounds of {args.seconds:g} s per side"
          f"{', one process each' if args.processes else ''}; throughput in {unit} per CPU "
          f"second, latencies in CPU ms")
    report.update(first=first, failed=failed, figures=summarize(figures, bench["end_to_end"]))
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
