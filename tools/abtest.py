"""In-process A/B timing of two sbtrack checkouts on the benchmark's workloads.

    python3 tools/abtest.py BASE CHANGE --workload train_tiny --rounds 14

BASE and CHANGE are repository roots.  The script loads ``src/sbtrack`` of
each as its own package (``sbtrack_base``, ``sbtrack_change``) into one
process and runs the benchmark of this checkout on both: each side is set
up as ``benchmark/run.py`` sets it up (the workload from
``benchmark/loops.py``, a checkpoint written and loaded, the scene suite and
training pairs), warmed up, and then timed in rounds.  A round runs the
benchmark's closed loop for ``--seconds`` on each side, and the side that
runs first switches every round, so that drift of the host (frequency,
other tenants) falls on both sides alike.  Before each round a side's
weights are reset to the loaded ones.

A round's figure is the loop's ``throughput_per_cpu_s``: frames, or
training pairs, per CPU second, with BLAS on one thread.  The output gives
each side's median and quartiles over the rounds, the median of the
per-round ratios change/base, the number of rounds the change was faster,
and each side's failed frames or steps.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import os
import statistics
import sys
import tempfile
from types import SimpleNamespace

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "benchmark"))
import run  # noqa: E402

run.limit_blas_threads()  # before numpy is imported
import loops  # noqa: E402


def load(root: str, name: str) -> SimpleNamespace:
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


def make_side(sb, w, seed: int, seconds: float):
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
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base", help="root of the base checkout")
    ap.add_argument("change", help="root of the changed checkout")
    ap.add_argument("--workload", choices=sorted(loops.WORKLOADS), required=True)
    ap.add_argument("--rounds", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=5.0, help="loop window per side and round")
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    if args.rounds < 2:
        ap.error("--rounds must be at least 2")
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    w = loops.WORKLOADS[args.workload]
    sides = {name: make_side(load(root, f"sbtrack_{name}"), w, args.seed, args.seconds)
             for name, root in (("base", args.base), ("change", args.change))}

    rates = {name: [] for name in sides}
    failed = dict.fromkeys(sides, 0)
    order = list(sides)
    for _ in range(args.rounds):
        for name in order:
            r = sides[name]()
            rates[name].append(r.rate)
            failed[name] += r.failed
        order.reverse()

    unit = "frames" if w.kind == "track" else "pairs"
    print(f"{args.workload}: {args.rounds} rounds of {args.seconds:g} s per side, "
          f"{unit} per CPU second")
    for name, xs in rates.items():
        q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
        print(f"  {name:7s} median {q2:8.2f}   quartiles {q1:8.2f} .. {q3:8.2f}   "
              f"failed {failed[name]}")
    ratios = [c / b for b, c in zip(rates["base"], rates["change"])]
    wins = sum(c > b for b, c in zip(rates["base"], rates["change"]))
    print(f"  change/base median ratio {statistics.median(ratios):.3f}; "
          f"change faster in {wins} of {args.rounds} rounds")
    return 0


if __name__ == "__main__":
    sys.exit(main())
