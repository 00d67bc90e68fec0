"""Replay a pinned CLI transcript: stdout and exit code, byte for byte.

Each command below prints only simulated numbers, so two runs of the
same tree print the same bytes.  ``golden/cli_transcript.json`` holds
what each printed and returned; a change to how the CLI parses,
dispatches or prints (or to anything it runs) shows up here as a diff
against that file.

A change that is *meant* to move a command's output regenerates the
file with ``python tests/test_cli_transcript.py`` and says so.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden" / "cli_transcript.json"

if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))

from repro.cli import main

_G500 = ("graph500", "--scale", "10", "--mesh", "2x2", "--roots", "4")
_CRASH = ("--faults", "crash:rank=1,iter=2")

COMMANDS = (
    _G500,
    _G500 + ("--batch-roots",),
    _G500 + _CRASH + ("--checkpoint-every", "1"),
    _G500 + _CRASH + ("--recovery-mode", "degrade"),
    ("bfs", "--scale", "10", "--mesh", "2x2"),
    ("algo", "sssp-delta", "--scale", "10", "--mesh", "2x2"),
    ("algo", "bfs", "--scale", "10", "--mesh", "2x2",
     "--faults", "crash:rank=1,iter=1", "--checkpoint-every", "1"),
    ("chaos", "--smoke"),
    ("mutate", "--smoke"),
    ("mutate", "--scale", "9", "--mesh", "2x2",
     "--updates", "mixed:batches=4,size=64"),
    ("bench-serve", "--scale", "10", "--mesh", "2x2", "--seed", "7"),
)


def run(argv) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    return {"argv": list(argv), "exit": code, "stdout": out.getvalue()}


def _golden() -> list:
    return json.loads(GOLDEN.read_text())


def test_transcript_covers_every_command():
    assert [case["argv"] for case in _golden()] == [list(c) for c in COMMANDS]


@pytest.mark.parametrize("index", range(len(COMMANDS)),
                         ids=lambda i: " ".join(COMMANDS[i][:2]) + f"-{i}")
def test_command_replays_byte_identical(index):
    expected = _golden()[index]
    got = run(expected["argv"])
    assert got["exit"] == expected["exit"]
    assert got["stdout"] == expected["stdout"]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps([run(c) for c in COMMANDS], indent=2) + "\n")
