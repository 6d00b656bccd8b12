"""Lines of sbtrack that no benchmark workload runs.

    python3 tools/traffic.py

For each workload in ``BENCHMARK.json``, this runs the benchmark's command
(``benchmark/run.py --workload W --seed 1 --seconds 1 --trace 0``) from the
root of this checkout, each run in its own ``python -m trace --count
--missing`` process that ignores the interpreter's prefix directories.  It
then prints, per ``src/sbtrack`` module, the lines that every run's
``.cover`` file marks ``>>>>>>``: executable lines that no workload ran.
``run.py`` runs its set-up and the correctness gate, oracles included, so
their lines count as run.  A traced 1 s run takes about 6 s on a 2-vCPU VM.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MISSING = ">>>>>> "  # `trace --missing`'s mark on an executable line that never ran
_MODULE = re.compile(r"(?:^|\.)sbtrack\.(\w+)\.cover$")
SECONDS = 1.0  # loop window of each traced run


def module_of(cover_name: str) -> str | None:
    """The sbtrack module a `.cover` file name belongs to ("sbtrack.model.cover"
    -> "model"), or None for any other file."""
    m = _MODULE.search(cover_name)
    return m.group(1) if m else None


def missing_lines(cover_text: str) -> dict[int, str]:
    """{line number: source text} of the lines a `.cover` text marks missing."""
    return {i: line[len(MISSING):] for i, line in enumerate(cover_text.splitlines(), 1)
            if line.startswith(MISSING)}


def never_run(runs: list[dict[str, str]]) -> dict[str, dict[int, str]]:
    """Per sbtrack module, the lines missing in every run.  Each run maps
    `.cover` file names to their texts; a run without a module's file did
    not import it, so it ran none of its lines and narrows nothing."""
    out: dict[str, dict[int, str]] = {}
    for run in runs:
        for name, text in run.items():
            module = module_of(name)
            if module is None:
                continue
            lines = missing_lines(text)
            out[module] = lines if module not in out else {
                i: s for i, s in out[module].items() if i in lines}
    return dict(sorted(out.items()))


def traced_run(command: list, workload: str, coverdir: str) -> dict[str, str]:
    """One traced benchmark run; returns its `.cover` texts by file name."""
    ignore = os.pathsep.join(sorted({sys.prefix, sys.exec_prefix, sys.base_prefix}))
    argv = [sys.executable, "-m", "trace", "--count", "--missing", "--coverdir", coverdir,
            "--ignore-dir", ignore, *command[1:], "--workload", workload, "--seed", "1",
            "--seconds", repr(SECONDS), "--trace", "0"]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"error: {' '.join(argv)} exited {done.returncode}:\n{done.stderr}")
    if not json.loads(done.stdout.splitlines()[-1])["correct"]:
        raise SystemExit(f"error: the {workload} run failed its correctness gate")
    texts = {}
    for name in os.listdir(coverdir):
        with open(os.path.join(coverdir, name), encoding="utf-8") as fh:
            texts[name] = fh.read()
    return texts


def main(argv: list[str]) -> int:
    if argv:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    runs = []
    for w in bench["workloads"]:
        with tempfile.TemporaryDirectory() as coverdir:
            runs.append(traced_run(bench["command"], w["name"], coverdir))
    workloads = ", ".join(w["name"] for w in bench["workloads"])
    print(f"src/sbtrack lines that no workload ran ({workloads}):")
    for module, lines in never_run(runs).items():
        print(f"{module}.py: {len(lines)}")
        for i, text in lines.items():
            print(f"  {i:4d}  {text.strip()}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
