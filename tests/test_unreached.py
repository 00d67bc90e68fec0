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
