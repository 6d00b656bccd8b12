"""The line and settable-value counts of `tools/counts.py`, on a small
source string and a package written to a temporary directory."""

import importlib.util
import os

_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools", "counts.py")
_spec = importlib.util.spec_from_file_location("counts", _PATH)
counts = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(counts)

SOURCE = '''\
from dataclasses import dataclass


def f(a, b=1, *args, c, d=2, **kw):       # 2: b, d
    def inner(x=None):                     # 1
        return x
    return lambda y=3: y                   # 1


@dataclass
class Config:
    name: str                              # annotated, no default: 0
    size: int = 4                          # 1
    limit = 5                              # not annotated: 0

    def method(self, scale: float = 1.0):  # 1
        local: int = 6                     # in a function, not the class body: 0
        return local * scale
'''


def test_settable_values_counts_defaults_and_annotated_class_fields():
    assert counts.settable_values(SOURCE) == 6


def test_no_defaults_count_zero():
    assert counts.settable_values("def f(a, *, b):\n    pass\n\nclass C:\n    x: int\n") == 0


def test_line_count_is_newlines():
    assert counts.line_count(SOURCE) == 18
    assert counts.line_count("") == 0
    assert counts.line_count("x = 1") == 0


def test_main_sums_over_the_package(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SOURCE)
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub" / "b.py").write_text("def g(x=0):\n    return x\n")
    (tmp_path / "notes.txt").write_text("def h(y=1): pass\n")
    assert counts.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out == "lines: 20\nsettable values: 7\n"


def test_main_rejects_a_directory_without_sources(tmp_path):
    assert counts.main([str(tmp_path)]) == 2
