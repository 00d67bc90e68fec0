"""Shared machinery for the baseline engines.

Every baseline is a :class:`BaselineEngine` subclass that provides:

- its component set (built from :class:`~repro.core.subgraphs.SubgraphComponent`
  with the scheme's arc placement);
- per-iteration synchronization charges (``charge_iteration_sync``);
- message charges for push (``charge_push_messages``) and pull
  prerequisites (``charge_pull_prereq``);
- kernel rates per direction.

The loop itself is the shared
:class:`~repro.core.kernels.scheduler.LevelSyncScheduler` running one
:class:`BaselineComponentKernel` per component — identical
whole-iteration direction-optimized BFS (Beamer heuristic; none of the
baselines has sub-iteration direction) — so differences in simulated
time come only from the partitioning scheme's communication and balance
properties.  Pass ``tracer=`` to get the same ``bfs`` → ``iteration`` →
``component`` span tree the 1.5D engine emits.
"""

from __future__ import annotations

import numpy as np

from repro.core.config import BFSConfig
from repro.core.direction import choose_whole_iteration_direction
from repro.core.kernels.base import ComponentKernel, KernelBodySpec
from repro.core.kernels.fifteend import FifteenDContext
from repro.core.kernels.scheduler import SchedulerHost
from repro.core.metrics import BFSRunResult, IterationRecord
from repro.core.subgraphs import SubgraphComponent
from repro.core.vertexset import first_writers
from repro.machine.costmodel import CollectiveKind, CostModel, NodeKernelRates
from repro.machine.network import MachineSpec
from repro.obs.tracer import Tracer
from repro.runtime.ledger import TrafficLedger
from repro.runtime.mesh import ProcessMesh

__all__ = ["BaselineEngine", "BaselineComponentKernel"]


class BaselineComponentKernel(ComponentKernel):
    """Generic push/pull kernel over one baseline component.

    The traversal semantics (frontier arc selection, early-exit pull
    scan, first-writer-wins updates) are the shared component
    primitives; everything scheme-specific — message charges, pull
    prerequisites, kernel rates — is delegated back to the owning
    :class:`BaselineEngine`'s hooks.
    """

    def __init__(self, engine: "BaselineEngine", name: str, comp: SubgraphComponent):
        self.engine = engine
        self.name = name
        self.comp = comp

    @property
    def num_arcs(self) -> int:
        return self.comp.num_arcs

    def body_spec(self):
        return KernelBodySpec(component=self.comp, pull_kind="scan")

    def pull_body(self, active, visited):
        return self.comp.pull_scan(~visited.mask, active.mask)

    def commit_push(self, sel, active, visited, ledger, record):
        eng, name = self.engine, self.name
        per_rank = sel.per_rank(eng._p)
        record.scanned_arcs[name] = sel.num_arcs
        seconds = eng.rates.kernel_time(
            int(per_rank.max()), eng.push_rate(name), eng._ws
        )
        ledger.charge_compute(name, f"push:{name}", per_rank, seconds)
        if sel.num_arcs:
            eng.charge_push_messages(name, sel, ledger)
        at = np.flatnonzero(~visited.mask[sel.dst])
        newly, first = first_writers(sel.dst[at], visited.scratch)
        return newly, sel.src[at[first]]

    def commit_pull(self, scan, active, visited, ledger, record):
        eng, name = self.engine, self.name
        eng.charge_pull_prereq(name, ledger, active, visited)
        record.scanned_arcs[name] = scan.scanned_arcs
        seconds = eng.rates.kernel_time(
            int(scan.scanned_per_rank.max()), eng.pull_rate(name), eng._ws
        )
        ledger.charge_compute(
            name, f"pull:{name}", scan.scanned_per_rank, seconds
        )
        return scan.hit_dst, scan.hit_src

    def execute(self, direction, active, visited, ledger, record):
        if direction == "push":
            sel = self.comp.push_select(active)
            return self.commit_push(sel, active, visited, ledger, record)
        scan = self.pull_body(active, visited)
        return self.commit_pull(scan, active, visited, ledger, record)


class BaselineEngine(SchedulerHost):
    """Whole-iteration direction-optimized BFS over scheme components."""

    #: Human-readable scheme name (Table 1's "Part. Method" column).
    scheme = "abstract"

    def __init__(
        self,
        src: np.ndarray,
        dst: np.ndarray,
        num_vertices: int,
        mesh: ProcessMesh,
        machine: MachineSpec | None = None,
        config: BFSConfig | None = None,
        tracer: Tracer | None = None,
        metrics=None,
    ) -> None:
        self.mesh = mesh
        self.num_vertices = int(num_vertices)
        if machine is None:
            machine = mesh.machine or MachineSpec(num_nodes=mesh.num_ranks)
        self.machine = machine
        self.config = config or BFSConfig()
        self.cost = CostModel(machine)
        self.rates = NodeKernelRates(chip=machine.chip)
        self._ws = machine.work_scale
        self._p = mesh.num_ranks
        self._block_bytes = -(-mesh.block_size(num_vertices) // 8)
        from repro.graphs.stats import degrees_from_edges

        self.degrees = degrees_from_edges(src, dst, num_vertices)
        self.components = self._build_components(src, dst)
        self.num_input_edges = (
            sum(c.num_arcs for c in self.components.values()) // 2
        )
        self.mount(
            {n: BaselineComponentKernel(self, n, c) for n, c in self.components.items()},
            tracer, metrics,
        )

    # ------------------------------------------------------------------
    # scheme hooks
    # ------------------------------------------------------------------

    def _build_components(self, src, dst) -> dict[str, SubgraphComponent]:
        raise NotImplementedError

    def charge_iteration_sync(self, ledger: TrafficLedger, active, visited) -> None:
        """Frontier/delegate synchronization paid every iteration."""
        raise NotImplementedError

    def charge_push_messages(self, name, sel, ledger) -> None:
        """Remote traffic of a top-down sub-step (may be nothing)."""
        raise NotImplementedError

    def charge_pull_prereq(self, name, ledger, active, visited) -> None:
        """Remote state needed before a bottom-up sub-step."""
        raise NotImplementedError

    def charge_parent_reduction(self, ledger) -> None:
        """End-of-run delegated parent reduction (may be nothing)."""
        raise NotImplementedError

    def push_rate(self, name) -> float:
        return self.rates.message_rate(self.config.num_cgs)

    def pull_rate(self, name) -> float:
        # Baselines lack CG-aware segmenting: GLD-latency bound pulls.
        return self.rates.pull_rate_unsegmented()

    # ------------------------------------------------------------------
    # scheduler hooks
    # ------------------------------------------------------------------

    def run(self, root: int, **resilience) -> BFSRunResult:
        return self.scheduler.run(root, **resilience)

    def begin_iteration(self, ledger, active, visited) -> None:
        self.charge_iteration_sync(ledger, active, visited)

    def iteration_direction(self, active, visited) -> str:
        return choose_whole_iteration_direction(
            active.mask, visited.mask, self.degrees, self.config
        )

    def record_activation(self, record: IterationRecord, next_active) -> None:
        record.newly_activated["all"] = len(next_active)

    def end_run(self, ledger, tracer, parent) -> None:
        self.charge_parent_reduction(ledger)

    # ------------------------------------------------------------------
    # charging helpers shared by schemes
    # ------------------------------------------------------------------

    def charge_global_bitmap_allreduce(
        self, phase: str, ledger: TrafficLedger, num_bits: int, sparse_count: int
    ) -> None:
        """Global allreduce of a shared frontier set."""
        ledger.charge_allreduce(
            phase,
            self._p,
            FifteenDContext.sync_bytes(num_bits, sparse_count),
            self.mesh.group_traffic_split(np.arange(self._p)),
        )

    def charge_global_alltoallv(
        self, phase: str, send_msgs_per_rank: np.ndarray, ledger: TrafficLedger, message_bytes: int = 8
    ) -> None:
        max_bytes = float(send_msgs_per_rank.max()) * message_bytes
        intra_f, inter_f = self.mesh.group_traffic_split(np.arange(self._p))
        ledger.charge_collective(
            phase,
            CollectiveKind.ALLTOALLV,
            self._p,
            max_bytes * intra_f,
            max_bytes * inter_f,
            total_bytes=float(send_msgs_per_rank.sum()) * message_bytes,
        )

    def charge_receiver_kernel(self, phase, recv_rank_per_msg, ledger, label="recv"):
        counts = np.bincount(recv_rank_per_msg, minlength=self._p)
        seconds = self.rates.kernel_time(
            int(counts.max()), self.rates.message_rate(self.config.num_cgs), self._ws
        )
        ledger.charge_compute(phase, f"push_{label}:{phase}", counts, seconds)
