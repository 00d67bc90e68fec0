"""``tools/unreached.py``: which mentions count as a use of a public name."""

import importlib.util
from pathlib import Path

_TOOL = Path(__file__).resolve().parent.parent / "tools" / "unreached.py"
_spec = importlib.util.spec_from_file_location("unreached", _TOOL)
unreached = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(unreached)


def _tree(root: Path, files: dict[str, str]) -> Path:
    for rel, text in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    return root


def test_reexports_all_and_tests_are_not_uses(tmp_path):
    root = _tree(tmp_path, {
        "src/pkg/__init__.py": (
            "from pkg.mod import exported\n__all__ = ['exported', 'listed']\n"
        ),
        "src/pkg/mod.py": (
            "def exported(): pass\n"
            "def listed(): pass\n"
            "def called(): pass\n"
            "def by_string(): pass\n"
            "def _private(): pass\n"
            "class Box:\n"
            "    def read(self): pass\n"
            "    def unread(self): pass\n"
            "    def __len__(self): return 0\n"
        ),
        "benchmarks/bench.py": (
            "from pkg.mod import called\n"
            "called()\n"
            "getattr(object(), 'by_string')\n"
            "Box().read()\n"
        ),
        "tests/test_mod.py": "from pkg.mod import exported, listed\n",
        "benchmarks/test_smoke.py": "from pkg.mod import Box\nBox().unread()\n",
    })
    names = [row[3] for row in unreached.unreached(root)]
    assert names == ["exported", "listed", "Box.unread"]


def test_params_set_by_keyword_position_forwarding_or_cli_dest(tmp_path):
    root = _tree(tmp_path, {
        "src/pkg/__init__.py": "",
        "src/pkg/cli.py": (
            "import argparse\n"
            "p = argparse.ArgumentParser()\n"
            "p.add_argument('--batch-size', type=int)\n"
        ),
        "src/pkg/mod.py": (
            "def by_keyword(x, *, knob=1, idle=2): pass\n"
            "def by_position(x, first=1, second=2): pass\n"
            "def forwarded(*, knob=1, other=2): pass\n"
            "def from_cli(*, batch_size=64, idle=3): pass\n"
            "def _private(*, idle=1): pass\n"
            "class Box:\n"
            "    def __init__(self, size=4, *, tested=0): pass\n"
            "    def grow(self, by=1): pass\n"
            "class Heir(Box):\n"
            "    pass\n"
        ),
        "benchmarks/bench.py": (
            "from pkg.mod import Heir, by_keyword, by_position, forwarded\n"
            "by_keyword(0, knob=3)\n"
            "by_position(0, 5)\n"
            "opts = {}\n"
            "forwarded(**opts)\n"
            "Heir(8).grow(2)\n"
        ),
        "tests/test_mod.py": (
            "from pkg.mod import Box, by_keyword\n"
            "by_keyword(0, idle=9)\n"
            "Box(tested=1)\n"
        ),
    })
    params = [(row[2], row[3]) for row in unreached.unset_params(root)]
    assert params == [
        ("by_keyword", "idle"),
        ("by_position", "second"),
        ("from_cli", "idle"),
        ("Box", "tested"),
    ]


def test_star_args_forward_sets_positional_parameters_only(tmp_path):
    root = _tree(tmp_path, {
        "src/pkg/__init__.py": "",
        "src/pkg/mod.py": (
            "def spread(x, first=1, *, knob=2): pass\n"
            "def splat(x, first=1, *, knob=2): pass\n"
        ),
        "benchmarks/bench.py": (
            "from pkg.mod import splat, spread\n"
            "args, opts = (0, 1), {}\n"
            "spread(*args)\n"
            "splat(0, **opts)\n"
        ),
    })
    params = [(row[2], row[3]) for row in unreached.unset_params(root)]
    assert params == [("spread", "knob")]
