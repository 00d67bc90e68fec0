"""Simulated SPMD runtime.

A New Sunway run uses one MPI process per node arranged in an R x C mesh.
This subpackage simulates that runtime inside one Python process:

- :mod:`repro.runtime.mesh` — the R x C process mesh, rank/coordinate
  mapping, row/column groups, vertex ownership, and the row-to-supernode
  mapping the 1.5D partitioning exploits.
- :mod:`repro.runtime.ledger` — the traffic/compute ledger: every
  would-be collective and kernel is recorded with its exact volumes and
  priced by the machine's :class:`~repro.machine.costmodel.CostModel`.
- :mod:`repro.runtime.comm` — a simulated communicator that really moves
  numpy buffers between per-rank inboxes (alltoallv, allreduce)
  while charging the ledger.

BFS output computed on this runtime is bit-exact with a real distributed
run; only the seconds are modeled (see DESIGN.md §2).
"""

from repro.runtime.comm import SimCommunicator
from repro.runtime.ledger import CommEvent, ComputeEvent, TrafficLedger
from repro.runtime.mesh import ProcessMesh

__all__ = [
    "ProcessMesh",
    "TrafficLedger",
    "CommEvent",
    "ComputeEvent",
    "SimCommunicator",
    "ReplayBFS",
    "ReplayResult",
]


def __getattr__(name):
    # Lazy: replay depends on repro.core, which itself imports this
    # package's submodules — eager import would be circular.
    if name in ("ReplayBFS", "ReplayResult"):
        from repro.runtime import replay

        return getattr(replay, name)
    raise AttributeError(f"module 'repro.runtime' has no attribute {name!r}")
