"""Packaging metadata and module exports name things that exist, every
public definition has a caller, and the package needs nothing beyond its
declared dependencies."""

import ast
import importlib
import pkgutil
import re
import sys
import tomllib
from pathlib import Path

import numpy as np
import pytest

import sbtrack
from sbtrack import model as md
from sbtrack import weights as wio

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
BENCHMARK = PYPROJECT.parent / "benchmark"
SRC = Path(sbtrack.__file__).resolve().parent
MODULES = sorted(m.name for m in pkgutil.iter_modules(sbtrack.__path__))

# public definitions that nothing in src/ or benchmark/ calls yet, each with
# the ROADMAP direction that keeps it
UNCALLED_BY_DESIGN = {
    "model.classifier_config": "direction 7: classification pre-training",
    "model.forward_classification": "direction 7: classification pre-training",
    "weights.load_weights_into": "direction 7: pre-trained stages into a tracker",
    "tracking.evaluate_sequences": "direction 7: measuring the paper's claims",
    "scenes.write_pgm": "direction 6: score maps written for inspection",
    "oracles.OracleResult.row": "direction 6: the `oracles` CLI prints each row",
}


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


def _referenced_names(nodes) -> tuple[set[str], set[str]]:
    """The names that `nodes` reference, bare (`name`) and as attributes (`x.name`)."""
    walked = [n for node in nodes for n in ast.walk(node)]
    return ({n.id for n in walked if isinstance(n, ast.Name)},
            {n.attr for n in walked if isinstance(n, ast.Attribute)})


def _scopes(tree):
    """(name, definition, nodes) per top-level statement of a module; a class
    is split into one scope per method ("Class.method") and one for the rest
    of it ("Class").  A statement that defines nothing has the name None."""
    for node in tree.body:
        if not isinstance(node, ast.ClassDef):
            yield getattr(node, "name", None), node, [node]
            continue
        methods = [m for m in node.body if isinstance(m, ast.FunctionDef)]
        for m in methods:
            yield f"{node.name}.{m.name}", m, [m]
        yield node.name, node, [n for n in node.body if n not in methods] + node.decorator_list + node.bases


def test_every_public_definition_has_a_caller():
    """A public top-level function or class of `sbtrack`, or a public method or
    property of a public class, is named in `src/` or `benchmark/` outside its
    own body, or is on `UNCALLED_BY_DESIGN`; an entry there that gained a
    caller leaves the list.  A method or property counts as named only as an
    attribute (`x.name`): a variable of the same name does not call it."""
    public = set()
    refs = []  # (module path, scope name or None, (bare names, attribute names) referenced there)
    for path in sorted(SRC.glob("*.py")) + sorted(BENCHMARK.glob("*.py")):
        for own, definition, nodes in _scopes(ast.parse(path.read_text(encoding="utf-8"))):
            refs.append((path, own, _referenced_names(nodes)))
            if (path.parent == SRC and isinstance(definition, (ast.FunctionDef, ast.ClassDef))
                    and not any(part.startswith("_") for part in own.split("."))):
                public.add((path, own))

    def inside(scope, definition):
        return scope is not None and (scope == definition or scope.startswith(definition + "."))

    def named(qual, names, attrs):
        owner, _, name = qual.rpartition(".")
        return name in attrs or (not owner and name in names)

    uncalled = {f"{path.stem}.{qual}" for path, qual in public
                if not any(named(qual, *names) and not (p == path and inside(own, qual))
                           for p, own, names in refs)}
    assert sorted(uncalled - UNCALLED_BY_DESIGN.keys()) == [], "no caller and not allowlisted"
    assert sorted(UNCALLED_BY_DESIGN.keys() - uncalled) == [], "allowlisted but has a caller"


def _imported_top_level_modules(path: Path) -> set[str]:
    modules = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            modules.update(alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules.add(node.module.partition(".")[0])
    return modules


def test_third_party_imports_are_the_declared_dependencies():
    """What `sbtrack` imports from outside the standard library is exactly
    what `pyproject.toml` declares (each distribution here is named as its
    module is)."""
    with open(PYPROJECT, "rb") as fh:
        declared = tomllib.load(fh)["project"]["dependencies"]
    declared = {re.match(r"[\w.-]+", dep).group().lower() for dep in declared}
    imported = set().union(*map(_imported_top_level_modules, SRC.glob("*.py")))
    assert imported - set(sys.stdlib_module_names) == declared == {"numpy"}


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_modules_import_the_package_relatively(path):
    """No module imports `sbtrack` by its absolute name, so the package's
    modules always use their siblings from the same directory, whatever name
    the package is loaded under and whichever `sbtrack` is on `sys.path`."""
    assert "sbtrack" not in _imported_top_level_modules(path)


def test_weight_file_round_trip_without_yaml(tmp_path, monkeypatch):
    monkeypatch.setitem(sys.modules, "yaml", None)  # any `import yaml` now raises ImportError
    saved = md.build_model(md.tiny_config(), seed=0)
    wio.save_weights(saved, tmp_path / "m.sbtw")
    loaded = wio.load_weights(tmp_path / "m.sbtw")
    assert loaded.config == saved.config
    assert list(loaded.params) == list(saved.params)
    for name, t in saved.params.items():
        np.testing.assert_array_equal(loaded.params[name].data, t.data, err_msg=name)
