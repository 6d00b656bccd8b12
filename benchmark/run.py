"""sbtrack benchmark: tracker frames/s, fine-tuning pairs/s, per-layer trace.

    python3 benchmark/run.py --workload track_tiny --seed 1 --seconds 33 --trace 0

Run from the repository root.  Workloads are `track_tiny`, `track_light`
and `train_tiny` (see README.md).  With `--trace 0` the last line of
standard output is a JSON object with the end-to-end metrics; with
`--trace 1` it holds the per-layer metrics of a traced run instead.  The
line before it holds the environment record and run details.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import platform
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_build")
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
MODULES = ("engine", "blocks", "model", "tracking", "training", "weights", "scenes", "oracles",
           "boxes")


def limit_blas_threads() -> int:
    """Run BLAS on one thread; call before importing numpy.  Returns nproc.

    Frames and steps are timed on the process CPU clock, which would also
    count a second BLAS thread's spinning, and on a shared host of few cores
    a second thread mostly measures the scheduler.
    """
    for var in BLAS_VARS:
        os.environ[var] = "1"
    return len(os.sched_getaffinity(0))


def load_sbtrack():
    """Import sbtrack from this checkout's src/; returns a namespace of its modules."""
    import importlib
    from types import SimpleNamespace

    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    mods = {name: importlib.import_module(f"sbtrack.{name}") for name in MODULES}
    return SimpleNamespace(modules=list(mods.values()), **mods)


def _blas_threads_in_use():
    """Thread count reported by the OpenBLAS that numpy loaded, if it can be asked."""
    import ctypes

    import numpy as np

    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return fn()
    return None


def environment(nproc: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    src_lines = 0
    for path in glob.glob(os.path.join(SRC, "sbtrack", "*.py")):
        with open(path, "rb") as fh:
            src_lines += sum(1 for _ in fh)
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads_in_use(),
        "blas_thread_env": {v: os.environ[v] for v in BLAS_VARS},
        "nproc": nproc,
        "machine": platform.machine(),
        "src_lines": src_lines,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("track_tiny", "track_light", "train_tiny"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not os.path.isfile(os.path.join(SRC, "sbtrack", "model.py")):
        print(f"error: no sbtrack sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2

    nproc = limit_blas_threads()
    sb = load_sbtrack()
    import loops

    result, info = loops.run(sb, args.workload, args.seed, args.seconds, bool(args.trace),
                             OUT_DIR)
    info["environment"] = environment(nproc)
    for v in info.get("span_coverage_violations", ()):
        print(f"span coverage: {v}", file=sys.stderr)
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
