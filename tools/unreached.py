#!/usr/bin/env python
"""List the public API of ``src/`` that no non-test code names.

An AST scan: every public (not ``_``-prefixed) function, class and
method defined under the scanned package is reported when its name
occurs nowhere in the non-test Python of the repo (``src/``,
``benchmarks/``, ``examples/``, ``tools/``; ``test_*.py`` and
``conftest.py`` excluded) as a loaded identifier, a loaded attribute,
an imported name, or a string constant.  String constants count
because some callers resolve by name (``getattr(obj, "supports_lanes")``,
the CLI's spec parsers).  Two kinds of mention do not count as uses:
the strings of an ``__all__`` list, and the imports of an
``__init__.py`` (re-exports).

The match is by bare name, so a method counts as reached when any
object's attribute of that name is read; the list is a lower bound of
what only tests reach, and an entry is a candidate for deletion, not a
verdict.

    python tools/unreached.py                 # scan src/ from the repo root
    python tools/unreached.py --root PATH     # scan another checkout
"""

from __future__ import annotations

import argparse
import ast
import sys
from pathlib import Path

#: Directories, relative to the repo root, whose Python counts as a caller.
CALLER_DIRS = ("src", "benchmarks", "examples", "tools")


def _is_test(path: Path) -> bool:
    return path.name.startswith("test_") or path.name == "conftest.py"


def _all_strings(tree: ast.AST) -> set[int]:
    """ids of the string constants inside ``__all__ = [...]``."""
    ids: set[int] = set()
    for node in ast.walk(tree):
        targets = (
            node.targets if isinstance(node, ast.Assign)
            else [node.target] if isinstance(node, (ast.AugAssign, ast.AnnAssign))
            else []
        )
        if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
            ids.update(id(c) for c in ast.walk(node) if isinstance(c, ast.Constant))
    return ids


def used_names(path: Path, tree: ast.AST) -> set[str]:
    """Names one file reads, imports or spells as a string constant."""
    skip = _all_strings(tree)
    reexport = path.name == "__init__.py"
    names: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)) and not reexport:
            names.update(a.name.rsplit(".", 1)[-1] for a in node.names)
        elif (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and id(node) not in skip
        ):
            names.add(node.value)
    return names


def public_defs(tree: ast.AST):
    """``(lineno, kind, qualified name)`` of module-level functions and
    classes and of the methods of those classes, public ones only."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if not node.name.startswith("_"):
                yield node.lineno, "function", node.name
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            yield node.lineno, "class", node.name
            for item in node.body:
                if isinstance(
                    item, (ast.FunctionDef, ast.AsyncFunctionDef)
                ) and not item.name.startswith("_"):
                    yield item.lineno, "method", f"{node.name}.{item.name}"


def unreached(root: Path, package: str = "src") -> list[tuple[str, int, str, str]]:
    trees: dict[Path, ast.AST] = {}
    for top in CALLER_DIRS:
        for path in sorted((root / top).rglob("*.py")):
            if not _is_test(path):
                trees[path] = ast.parse(path.read_text(), filename=str(path))
    used: set[str] = set()
    for path, tree in trees.items():
        used |= used_names(path, tree)
    out = []
    for path, tree in trees.items():
        if not path.is_relative_to(root / package):
            continue
        for lineno, kind, name in public_defs(tree):
            if name.rsplit(".", 1)[-1] not in used:
                out.append((str(path.relative_to(root)), lineno, kind, name))
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--root", type=Path, default=Path(__file__).resolve().parent.parent,
        help="repo checkout to scan (default: this one)",
    )
    args = parser.parse_args(argv)
    rows = unreached(args.root.resolve())
    for path, lineno, kind, name in rows:
        print(f"{path}:{lineno}  {kind:<8}  {name}")
    print(f"{len(rows)} public names reached only from tests")
    return 0


if __name__ == "__main__":
    sys.exit(main())
