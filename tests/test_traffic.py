"""The `.cover` merge of `tools/traffic.py`, on synthetic cover texts; no
benchmark run and no subprocess."""

import importlib.util
import os

_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools", "traffic.py")
_spec = importlib.util.spec_from_file_location("traffic", _PATH)
traffic = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(traffic)


def cover(*marks: str) -> str:
    """A `.cover` text with one line per mark: "run", "missing" or "blank"."""
    prefix = {"run": "    3: ", "missing": ">>>>>> ", "blank": "       "}
    return "".join(f"{prefix[m]}line_{i}()\n" for i, m in enumerate(marks, 1))


def test_missing_lines_reads_the_marks():
    text = cover("run", "missing", "blank", "missing")
    assert traffic.missing_lines(text) == {2: "line_2()", 4: "line_4()"}
    assert traffic.missing_lines("") == {}


def test_module_of_takes_only_sbtrack_covers():
    assert traffic.module_of("sbtrack.model.cover") == "model"
    assert traffic.module_of("some.path.src.sbtrack.engine.cover") == "engine"
    assert traffic.module_of("run.cover") is None
    assert traffic.module_of("benchmark.gate.cover") is None
    assert traffic.module_of("notsbtrack.model.cover") is None


def test_never_run_keeps_the_lines_every_run_missed():
    runs = [
        {"sbtrack.model.cover": cover("missing", "missing", "run", "missing"),
         "run.cover": cover("missing")},
        {"sbtrack.model.cover": cover("missing", "run", "missing", "missing"),
         "sbtrack.engine.cover": cover("run", "missing")},
    ]
    got = traffic.never_run(runs)
    assert got == {"engine": {2: "line_2()"}, "model": {1: "line_1()", 4: "line_4()"}}
    assert list(got) == ["engine", "model"]


def test_a_line_run_once_is_not_reported():
    runs = [{"sbtrack.scenes.cover": cover("missing", "missing")},
            {"sbtrack.scenes.cover": cover("run", "run")},
            {"sbtrack.scenes.cover": cover("missing", "missing")}]
    assert traffic.never_run(runs) == {"scenes": {}}


def test_main_takes_no_arguments(capsys):
    assert traffic.main(["--seconds", "2"]) == 2
    assert "python3 tools/traffic.py" in capsys.readouterr().err
