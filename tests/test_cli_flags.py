"""Pin every subcommand's flag set: no flag is added or dropped unseen.

Each subcommand's option strings and positionals, read from
:func:`repro.cli.build_parser`, must equal the literal table below.  A
change to the table is a change to the CLI's surface and says so.
"""

import argparse

import pytest

from repro.cli import build_parser

_COMMON = {"--scale", "--mesh", "--seed", "--e-threshold", "--h-threshold"}
_RESILIENCE = {"--faults", "--checkpoint-every", "--max-restarts",
               "--recovery-mode"}
_HELP = {"-h", "--help"}

#: subcommand -> (option strings, positionals in order)
FLAGS = {
    "graph500": (_HELP | _COMMON | _RESILIENCE | {
        "--roots", "--no-validate", "--trace", "--batch-roots",
    }, []),
    "bfs": (_HELP | _COMMON | _RESILIENCE | {
        "--root", "--timeline", "--trace", "--flame",
    }, []),
    "sweep": (_HELP | {"--points", "--seed"}, []),
    "partitions": (_HELP | _COMMON, []),
    "report": (_HELP | _COMMON | {
        "--roots", "--out", "--prometheus", "--metrics-json", "--trace",
        "--smoke",
    }, []),
    "compare": (_HELP | {"--max-regress"}, ["old", "new"]),
    "chaos": (_HELP | _COMMON | {
        "--roots", "--smoke", "--matrix", "--checkpoint-every",
    }, []),
    "serve": (_HELP | _COMMON | {
        "--queries", "--clients", "--batch-size", "--queue-depth",
        "--batch-window", "--hot-fraction", "--hot-set", "--validate",
        "--faults", "--min-hit-rate", "--out", "--trace", "--telemetry-port",
        "--telemetry-interval", "--slo", "--straggler-ms", "--expect-slo",
        "--tenants", "--replicas", "--quota", "--duration", "--smoke",
    }, []),
    "bench-serve": (_HELP | _COMMON | {"--batch-sizes", "--json"}, []),
    "mutate": (_HELP | _COMMON | {
        "--updates", "--batch-size", "--compact-every", "--smoke",
    }, []),
    "ocs": (_HELP | {"--mib", "--seed"}, []),
    "algo": (_HELP | _COMMON | _RESILIENCE | {
        "--root", "--delta", "--damping", "--tol", "--max-iterations",
        "--unit-weights", "--report", "--trace", "--smoke", "--list",
    }, ["program"]),
}


def _subparsers() -> dict:
    (action,) = [
        a for a in build_parser()._actions
        if isinstance(a, argparse._SubParsersAction)
    ]
    return action.choices


def test_every_subcommand_is_pinned():
    assert sorted(_subparsers()) == sorted(FLAGS)


@pytest.mark.parametrize("command", sorted(FLAGS))
def test_flag_set_is_pinned(command):
    parser = _subparsers()[command]
    options = [o for a in parser._actions for o in a.option_strings]
    positionals = [a.dest for a in parser._actions if not a.option_strings]
    assert len(options) == len(set(options))
    assert (set(options), positionals) == FLAGS[command]
