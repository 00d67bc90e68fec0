"""Each lane of a wave decides its directions as its own run would.

A wave asks the §4.2 rule once per live lane and groups the lanes by
the answer (``MSBFSResult.lane_directions[wave][component]`` holds the
``(push_mask, pull_mask)`` groups).  Lane ``l``'s bit there must say,
at every wave and component, what ``record.directions`` of the
single-source ``run(roots[l])`` says at that level: ``push`` or
``pull`` while the lane is live, neither once it has ended, and a
component the wave skipped is one the run skipped too.

``tests/test_lane_counts.py`` (``CheckingMSBFS``) checks the same bits
from inside the wave: before every sub-iteration, each live lane's bit
against the rule applied to that lane's own counts.  This file checks
them from outside, on R-MAT graphs, against the records of the
single-source runs, skipped components included.
"""

import numpy as np
import pytest

from repro.core.engine import DistributedBFS
from repro.core.setup import build_setup
from repro.graph500.driver import sample_roots

CASES = [(10, 2, 2), (10, 2, 3), (11, 2, 2), (11, 2, 3)]


@pytest.fixture(scope="module", params=CASES, ids=lambda c: "s%d-%dx%d" % c)
def engine(request):
    scale, rows, cols = request.param
    setup = build_setup(scale, rows, cols, seed=scale)
    part = setup.partition()
    return DistributedBFS(part, machine=setup.machine, config=setup.config())


@pytest.mark.parametrize("num_lanes", [3, 64])
def test_lane_bits_are_each_roots_directions(engine, num_lanes):
    roots = sample_roots(
        engine.part.degrees, num_lanes, rng=np.random.default_rng(num_lanes)
    )
    batch = engine.run_batch(roots)
    seen = set()
    for lane, root in enumerate(roots.tolist()):
        bit = 1 << lane
        records = engine.run(root).iterations
        assert batch.num_waves >= len(records)
        for wave, groups in enumerate(batch.lane_directions):
            for name, wave_direction in batch.records[wave].directions.items():
                if name not in groups:
                    # An empty component: skipped by the wave and the run.
                    assert wave_direction == "-"
                    if wave < len(records):
                        assert records[wave].directions[name] == "-"
                    continue
                push_mask, pull_mask = groups[name]
                assert not push_mask & pull_mask
                chosen = (
                    "push" if push_mask & bit else "pull" if pull_mask & bit else None
                )
                expected = records[wave].directions[name] if wave < len(records) else None
                assert chosen == expected, (root, wave, name)
                seen.add(chosen)
    # Both directions were decided somewhere, so the check has teeth.
    assert {"push", "pull"} <= seen
