#!/usr/bin/env python
"""List the public API of ``src/`` that no non-test code names or sets.

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

With ``--params`` it lists keyword parameters instead: every defaulted
public (not ``_``-prefixed) parameter of a public function, method or
constructor, and every defaulted field of a public dataclass, that no
non-test call sets.  A call sets a parameter by keyword, by position,
or by forwarding: ``*args`` sets every positional parameter of the
callee and ``**kwargs`` every parameter.  ``dataclasses.replace`` sets
fields by keyword and ``functools.partial`` counts as a call of its
first argument.  A dataclass field that some non-test code assigns as an
attribute (``stats.shed += 1``) is state the producer fills in, not an
option, and counts as set.  A parameter named like one of ``cli.py``'s
argparse dests counts as set too, since the CLI hands a command's flags
to the function under their parameter names.  Callees match by bare
name (a class call reaches its ``__init__`` or fields, or those of the
nearest base that defines ``__init__``; ``super().__init__`` reaches
the enclosing class's bases), so this too is a list of candidates, not
verdicts.

    python tools/unreached.py                 # scan src/ from the repo root
    python tools/unreached.py --params        # keyword parameters nobody sets
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
    trees = _caller_trees(root)
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


def _caller_trees(root: Path) -> dict[Path, ast.AST]:
    trees: dict[Path, ast.AST] = {}
    for top in CALLER_DIRS:
        for path in sorted((root / top).rglob("*.py")):
            if not _is_test(path):
                trees[path] = ast.parse(path.read_text(), filename=str(path))
    return trees


def _callee(func: ast.expr) -> str | None:
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _is_dataclass(node: ast.ClassDef) -> bool:
    for dec in node.decorator_list:
        dec = dec.func if isinstance(dec, ast.Call) else dec
        if _callee(dec) == "dataclass":
            return True
    return any(_callee(b) == "NamedTuple" for b in node.bases)


def _fields(node: ast.ClassDef):
    """``(name, lineno, has_default)`` of a dataclass's init fields."""
    for item in node.body:
        if not (isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)):
            continue
        if "ClassVar" in ast.unparse(item.annotation):
            continue
        value = item.value
        if isinstance(value, ast.Call) and _callee(value.func) == "field":
            kws = {k.arg: k.value for k in value.keywords}
            init = kws.get("init")
            if isinstance(init, ast.Constant) and init.value is False:
                continue
            yield item.target.id, item.lineno, bool(
                {"default", "default_factory"} & kws.keys()
            )
        else:
            yield item.target.id, item.lineno, value is not None


def _signature(fn: ast.FunctionDef, bound: bool):
    """Positional parameter names (the bound first one dropped) and the
    ``(name, lineno)`` of every parameter with a default."""
    a = fn.args
    positional = [p.arg for p in a.posonlyargs + a.args]
    if bound and positional:
        positional = positional[1:]
    plain = a.posonlyargs + a.args
    defaulted = plain[len(plain) - len(a.defaults):] if a.defaults else []
    defaulted += [p for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
    return positional, [(p.arg, p.lineno) for p in defaulted if not p.arg.startswith("_")]


def keyword_params(tree: ast.AST):
    """``(callee, positional names, [(param, lineno)], qualified name,
    is_dataclass)`` of every public function, method and constructor (a
    dataclass's fields are its constructor's parameters)."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if not node.name.startswith("_"):
                yield (node.name, *_signature(node, bound=False), node.name, False)
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            if _is_dataclass(node):
                fields = list(_fields(node))
                yield (
                    node.name, [f for f, _, _ in fields],
                    [(f, line) for f, line, d in fields if d and not f.startswith("_")],
                    node.name, True,
                )
            for item in node.body:
                if not isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                decorators = {_callee(d) for d in item.decorator_list}
                if item.name == "__init__":
                    yield (node.name, *_signature(item, bound=True), node.name, False)
                elif not item.name.startswith("_") and "property" not in decorators:
                    bound = "staticmethod" not in decorators
                    yield (
                        item.name, *_signature(item, bound=bound),
                        f"{node.name}.{item.name}", False,
                    )


class _Calls(ast.NodeVisitor):
    """What each callee name is called with across the caller files:
    the most positional arguments (unbounded behind ``*args``), the
    keywords, and whether some call forwards ``**kwargs``
    (``everything``)."""

    def __init__(self):
        self.positional: dict[str, int] = {}
        self.keywords: dict[str, set[str]] = {}
        self.everything: set[str] = set()
        self.replaced: set[str] = set()
        self.stored: set[str] = set()
        self._bases: list[list[str]] = [[]]

    def visit_ClassDef(self, node):
        self._bases.append([n for n in map(_callee, node.bases) if n])
        self.generic_visit(node)
        self._bases.pop()

    def visit_Attribute(self, node):
        self.generic_visit(node)
        if isinstance(node.ctx, ast.Store):
            self.stored.add(node.attr)

    def visit_Call(self, node):
        self.generic_visit(node)
        args, keywords = node.args, node.keywords
        name = _callee(node.func)
        if name == "partial" and args:
            name, args = _callee(args[0]), args[1:]
        if name == "replace":
            self.replaced |= {k.arg for k in keywords if k.arg}
            return
        if (
            name == "__init__" and isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Call)
            and _callee(node.func.value.func) == "super"
        ):
            names = self._bases[-1]
        else:
            names = [name] if name else []
        # ``*args`` can fill positional parameters only; ``**kwargs`` any.
        reach = sys.maxsize if any(isinstance(a, ast.Starred) for a in args) else len(args)
        for name in names:
            if any(k.arg is None for k in keywords):
                self.everything.add(name)
            self.positional[name] = max(self.positional.get(name, 0), reach)
            self.keywords.setdefault(name, set()).update(k.arg for k in keywords if k.arg)


def cli_dests(root: Path, package: str = "src") -> set[str]:
    """The argparse dests of every ``cli.py`` under the scanned package."""
    dests: set[str] = set()
    for path in (root / package).rglob("cli.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if not (isinstance(node, ast.Call) and _callee(node.func) == "add_argument"):
                continue
            kws = {k.arg: k.value for k in node.keywords}
            if isinstance(kws.get("dest"), ast.Constant):
                dests.add(kws["dest"].value)
                continue
            flags = [
                a.value for a in node.args
                if isinstance(a, ast.Constant) and isinstance(a.value, str)
            ]
            long = [f for f in flags if f.startswith("--")] or flags
            if long:
                dests.add(long[0].lstrip("-").replace("-", "_"))
    return dests


def _heirs(trees) -> dict[str, set[str]]:
    """Class name -> the names of its subclasses (transitively) that
    define no ``__init__`` and so are constructed through it."""
    direct: dict[str, set[str]] = {}
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and not _is_dataclass(node) and not any(
                isinstance(item, ast.FunctionDef) and item.name == "__init__"
                for item in node.body
            ):
                for base in filter(None, map(_callee, node.bases)):
                    direct.setdefault(base, set()).add(node.name)
    heirs: dict[str, set[str]] = {}
    for name in direct:
        todo, seen = [name], set()
        while todo:
            for sub in direct.get(todo.pop(), ()):
                if sub not in seen:
                    seen.add(sub)
                    todo.append(sub)
        heirs[name] = seen
    return heirs


def unset_params(root: Path, package: str = "src") -> list[tuple[str, int, str, str]]:
    """``(path, lineno, qualified name, parameter)`` of every defaulted
    keyword parameter in the package that no non-test call sets."""
    trees = _caller_trees(root)
    calls = _Calls()
    for tree in trees.values():
        calls.visit(tree)
    dests = cli_dests(root, package)
    heirs = _heirs(trees.values())
    out = []
    for path, tree in trees.items():
        if not path.is_relative_to(root / package):
            continue
        for callee, positional, defaulted, qualname, record in keyword_params(tree):
            names = {callee} | (heirs.get(callee, set()) if qualname == callee else set())
            if names & calls.everything:
                continue
            by_position = set(positional[: max(calls.positional.get(n, 0) for n in names)])
            by_keyword = set().union(*(calls.keywords.get(n, set()) for n in names))
            for param, lineno in defaulted:
                if param in by_position or param in by_keyword or param in dests:
                    continue
                if record and param in calls.replaced | calls.stored:
                    continue
                out.append((str(path.relative_to(root)), lineno, qualname, param))
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--root", type=Path, default=Path(__file__).resolve().parent.parent,
        help="repo checkout to scan (default: this one)",
    )
    parser.add_argument(
        "--params", action="store_true",
        help="list keyword parameters no non-test call sets, not names",
    )
    args = parser.parse_args(argv)
    if args.params:
        params = unset_params(args.root.resolve())
        for path, lineno, qualname, param in params:
            print(f"{path}:{lineno}  {qualname}({param}=)")
        print(f"{len(params)} keyword parameters set only from tests")
        return 0
    rows = unreached(args.root.resolve())
    for path, lineno, kind, name in rows:
        print(f"{path}:{lineno}  {kind:<8}  {name}")
    print(f"{len(rows)} public names reached only from tests")
    return 0


if __name__ == "__main__":
    sys.exit(main())
