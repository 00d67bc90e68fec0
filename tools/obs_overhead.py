#!/usr/bin/env python
"""Host cost of a metrics registry against null sinks, and its call count.

Each pair builds two fresh engines on one graph — one reporting to a
new :class:`~repro.obs.metrics.MetricsRegistry`, one on the null sinks —
and times one pass of ``run(r)`` over the same roots on each,
alternating which goes first.  A pair's overhead is the metered pass's
time over the null pass's, minus one.  Prints the median and quartiles
of the pairs' overheads, then the registry accessor calls
(``counter`` / ``gauge`` / ``histogram`` / ``vector``) one traversal
makes and the label sets they reach.

    PYTHONPATH=src python tools/obs_overhead.py

The graph is the one ``tools/one_lane_ratio.py`` builds, at the layer
bench's ``bfs_rmat16`` size: R-MAT scale 16 on a 4x4 mesh with the
bench's seed and class thresholds (E 128, H 16) on the serving machine
model.
"""

from __future__ import annotations

import sys

import numpy as np

from one_lane_ratio import E_THRESHOLD, GRAPH_SEED, H_THRESHOLD, quartiles, timed_pass
from repro.core.engine import DistributedBFS
from repro.core.setup import build_setup
from repro.graph500.driver import sample_roots
from repro.obs.metrics import MetricsRegistry

SCALE, MESH = 16, (4, 4)
#: Roots per pass (the layer bench's observed sub-pass), and their seed.
ROOTS, ROOT_SEED = 8, 7
#: Alternating pairs of passes.
PAIRS = 16


class CountingRegistry(MetricsRegistry):
    """A registry that counts its accessor calls and their label sets."""

    def __init__(self) -> None:
        super().__init__()
        self.calls = 0
        self.keys: set = set()

    def _get(self, name, kind, factory, labels):
        self.calls += 1
        self.keys.add((name, tuple(sorted(labels.items()))))
        return super()._get(name, kind, factory, labels)


def main() -> int:
    rows, cols = MESH
    setup = build_setup(
        SCALE, rows, cols, seed=GRAPH_SEED,
        e_threshold=E_THRESHOLD, h_threshold=H_THRESHOLD, weak_scaled=False,
    )
    part = setup.partition()

    def engine(metrics=None):
        return DistributedBFS(
            part, machine=setup.machine, config=setup.config(), metrics=metrics
        )

    roots = sample_roots(
        part.degrees, ROOTS, rng=np.random.default_rng(ROOT_SEED)
    ).tolist()
    # Warm both paths once before timing.
    timed_pass(engine().run, roots[:1])
    timed_pass(engine(MetricsRegistry()).run, roots[:1])

    sides = ("null", "metrics")
    overheads = []
    for pair in range(PAIRS):
        engines = {"null": engine(), "metrics": engine(MetricsRegistry())}
        ms = {}
        for name in sides if pair % 2 == 0 else sides[::-1]:
            ms[name] = timed_pass(engines[name].run, roots)
        overheads.append(ms["metrics"] / ms["null"] - 1.0)

    counting = CountingRegistry()
    timed_pass(engine(counting).run, roots)

    print(
        f"scale {SCALE} mesh {rows}x{cols}: {PAIRS} pairs of "
        f"{len(roots)}-root passes, metrics on against null sinks"
    )
    q1, med, q3 = quartiles(overheads)
    print(f"  overhead median {med:+.3f}  q1 {q1:+.3f}  q3 {q3:+.3f}")
    print(
        f"  registry calls per traversal {counting.calls / len(roots):.1f}  "
        f"({counting.calls} calls, {len(counting.keys)} label sets "
        f"over {len(roots)} runs)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
