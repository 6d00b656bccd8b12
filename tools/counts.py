"""Size counts of the sbtrack package.

    python3 tools/counts.py [PACKAGE_DIR]

PACKAGE_DIR defaults to ``src/sbtrack`` of this checkout.  Prints two
counts over the ``.py`` files under it:

* lines: newline characters, as ``wc -l`` counts them;
* settable values: function parameter defaults (positional and
  keyword-only, lambdas included) plus annotated class fields with a
  default (``name: type = value`` in a class body), found by AST.  Each is
  a value that a caller or a constructor may set or leave, so the count
  falls when an option with no caller goes.
"""

from __future__ import annotations

import ast
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def line_count(source: str) -> int:
    return source.count("\n")


def settable_values(source: str) -> int:
    n = 0
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            args = node.args
            n += len(args.defaults) + sum(d is not None for d in args.kw_defaults)
        elif isinstance(node, ast.ClassDef):
            n += sum(isinstance(s, ast.AnnAssign) and s.value is not None for s in node.body)
    return n


def package_sources(package_dir: str) -> list[str]:
    paths = sorted(os.path.join(d, f) for d, _, files in os.walk(package_dir)
                   for f in files if f.endswith(".py"))
    sources = []
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            sources.append(fh.read())
    return sources


def main(argv: list[str]) -> int:
    if len(argv) > 1:
        print(__doc__, file=sys.stderr)
        return 2
    package_dir = argv[0] if argv else os.path.join(ROOT, "src", "sbtrack")
    sources = package_sources(package_dir)
    if not sources:
        print(f"no .py files under {package_dir}", file=sys.stderr)
        return 2
    print(f"lines: {sum(map(line_count, sources))}")
    print(f"settable values: {sum(map(settable_values, sources))}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
