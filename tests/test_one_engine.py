"""One 1.5D engine: a root, a program and a batch run on the same object.

- A batch of one is its root: ``run_batch([r])`` gives ``run(r)``'s
  parent array and the same ledger, event for event and field for field
  (the wire width of one lane is the single-source width).  Checked on
  every (graph, config) case of ``golden/charge_sequence.json`` and on
  the three 1.5D configs of ``golden/engine_golden.json``.
- The serving name is the class: ``MultiSourceBFS is DistributedBFS``.
- One engine serves concurrently: a 64-root batch, a vertex program and
  a single root run on one object from three threads, each with its
  serial result.
"""

import threading

import numpy as np
import pytest

from golden.generate import ENGINE_CONFIGS, build_system
from repro.core.engine import DistributedBFS
from repro.core.programs import build_program
from repro.graph500.driver import sample_roots
from repro.serve import msbfs
from test_charge_sequence import CASES, build_case


def same_ledger(a, b) -> bool:
    """Every field of every event, in order."""
    return (
        a.comm_events == b.comm_events
        and a.compute_events == b.compute_events
    )


def assert_same_run(single, batch):
    assert batch.num_lanes == 1
    assert np.array_equal(batch.parent[0], single.parent)
    assert same_ledger(batch.ledger, single.ledger)
    assert batch.total_seconds == single.total_seconds


def test_serving_name_is_the_engine_class():
    assert msbfs.MultiSourceBFS is DistributedBFS


@pytest.mark.parametrize("case", CASES)
def test_batch_of_one_is_its_root_on_charge_sequence_cases(case):
    _, _, part, machine, config, roots, _ = build_case(case)
    engine = DistributedBFS(part, machine=machine, config=config)
    for root in roots:
        assert_same_run(engine.run(root), engine.run_batch([root]))


@pytest.mark.parametrize("name", sorted(ENGINE_CONFIGS))
def test_batch_of_one_is_its_root_on_engine_golden_configs(name):
    *_, machine, part, root = build_system()
    engine = DistributedBFS(part, machine=machine, config=ENGINE_CONFIGS[name])
    by_degree = np.argsort(-part.degrees, kind="stable")
    n = part.num_vertices
    for r in (root, int(by_degree[n // 8]), int(by_degree[n // 2])):
        assert_same_run(engine.run(r), engine.run_batch([r]))


# ----------------------------------------------------------------------
# one engine, concurrent runs
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def served():
    """An untraced engine on the golden graph, 64 roots and a hub."""
    *_, machine, part, root = build_system()
    engine = DistributedBFS(part, machine=machine)
    roots = sample_roots(part.degrees, 64, rng=np.random.default_rng(7))
    return engine, part, roots, root


def test_threads_share_one_engine(served):
    engine, part, roots, root = served
    jobs = {
        "batch": lambda: engine.run_batch(roots),
        "program": lambda: engine.run_program(
            build_program("pagerank", part, max_iterations=8)
        ),
        "root": lambda: engine.run(root),
    }
    serial = {name: job() for name, job in jobs.items()}

    start = threading.Barrier(len(jobs))
    got, errors = {}, []

    def worker(name):
        try:
            start.wait(timeout=30)
            got[name] = [jobs[name]() for _ in range(2)]
        except Exception as exc:  # surfaced below, not lost in the thread
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(n,)) for n in jobs]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
    assert not errors
    for result in got["batch"]:
        assert np.array_equal(result.parent, serial["batch"].parent)
        assert same_ledger(result.ledger, serial["batch"].ledger)
    for result in got["program"]:
        assert result.state.keys() == serial["program"].state.keys()
        for key, value in serial["program"].state.items():
            assert np.array_equal(result.state[key], value)
        assert same_ledger(result.ledger, serial["program"].ledger)
    for result in got["root"]:
        assert np.array_equal(result.parent, serial["root"].parent)
        assert same_ledger(result.ledger, serial["root"].ledger)
