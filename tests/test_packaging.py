"""Packaging metadata and module exports name things that exist."""

import importlib
import pkgutil
import tomllib
from pathlib import Path

import pytest

import sbtrack

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
MODULES = sorted(m.name for m in pkgutil.iter_modules(sbtrack.__path__))


def _resolve(target: str):
    module, _, attr = target.partition(":")
    obj = importlib.import_module(module)
    for part in attr.split("."):
        obj = getattr(obj, part)
    return obj


def test_script_entry_points_import_to_callables():
    with open(PYPROJECT, "rb") as fh:
        scripts = tomllib.load(fh).get("project", {}).get("scripts", {})
    for script, target in scripts.items():
        assert callable(_resolve(target)), f"{script} = {target!r} is not callable"


@pytest.mark.parametrize("module", MODULES)
def test_all_names_exist(module):
    mod = importlib.import_module(f"sbtrack.{module}")
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert not missing
