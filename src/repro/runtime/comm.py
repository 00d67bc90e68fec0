"""Simulated communicator: real data movement + ledger charging.

:class:`SimCommunicator` implements the MPI collectives the paper's BFS
uses (alltoallv and allreduce of bitmaps) over
per-rank numpy buffers living in one address space.  Data really moves —
the receiving side gets exactly the bytes a real MPI run would deliver —
and every call charges the :class:`~repro.runtime.ledger.TrafficLedger`
with the intra-/inter-supernode split derived from the mesh topology.

Collectives accept a ``group`` (any subset of ranks: a row, a column, or
the whole mesh), mirroring MPI sub-communicators.

Tracing: attach a :class:`~repro.obs.tracer.Tracer` to the ledger
(``TrafficLedger(cost, tracer=...)``) and every collective here emits a
leaf span — named after the collective kind, tagged with its phase and
participant count, carrying a ``bytes`` counter — under whatever span
the caller has open.

Metrics: attach a :class:`~repro.obs.metrics.MetricsRegistry` to the
ledger (``metrics=``) and ``alltoallv`` additionally records its
*per-rank* byte vector — the bytes each rank sends — into the
``rank_bytes`` vector family and the ``rank_byte_load`` histogram (both
labeled by ``phase``), the per-rank communication-imbalance data behind
Fig. 13.

Fault interception: every collective passes its explicit rank ``group``
into :meth:`~repro.runtime.ledger.TrafficLedger.charge_collective`, so
an installed :class:`~repro.resilience.faults.FaultInjector` can scope
drop/straggler faults to the sub-communicator actually involved, and
every *delivered* payload makes one :meth:`_deliver` round-trip through
the injector — a corruption fault flips a byte of a copy, the sha256
checksum mismatch detects it, and the pristine data is re-delivered
(checksum-verified retransmission, with the wasted attempt and backoff
already charged by the ledger).  With no injector installed both hooks
are no-ops and delivery is byte-identical to the fault-free path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.machine.costmodel import CollectiveKind
from repro.runtime.ledger import TrafficLedger
from repro.runtime.mesh import ProcessMesh

__all__ = ["SimCommunicator"]


@dataclass
class SimCommunicator:
    """Group collectives over simulated ranks."""

    mesh: ProcessMesh
    ledger: TrafficLedger

    def _deliver(self, phase: str, payload: np.ndarray) -> np.ndarray:
        """Payload delivery hook: corruption round-trip when faults are on."""
        faults = self.ledger.faults
        if faults is None:
            return payload
        return faults.verify_delivery(phase, payload)

    # ------------------------------------------------------------------
    # alltoallv
    # ------------------------------------------------------------------

    def alltoallv(
        self,
        phase: str,
        group: np.ndarray,
        send: dict[int, dict[int, np.ndarray]],
    ) -> dict[int, np.ndarray]:
        """Exchange variable-length buffers within ``group``.

        ``send[i][j]`` is what rank ``i`` sends to rank ``j`` (both must be
        in the group; missing entries mean empty).  Returns ``recv[j]``:
        the concatenation of all pieces addressed to ``j``, ordered by
        source rank — the deterministic order a rank-ordered MPI_Alltoallv
        delivers.
        """
        group = np.asarray(group, dtype=np.int64)
        group_set = set(group.tolist())
        p = self.mesh.num_ranks

        per_rank_intra = np.zeros(p, dtype=np.float64)
        per_rank_inter = np.zeros(p, dtype=np.float64)
        recv: dict[int, list[np.ndarray]] = {int(j): [] for j in group}
        total_bytes = 0.0

        for i in sorted(group_set):
            outgoing = send.get(i, {})
            bytes_to = np.zeros(p, dtype=np.float64)
            for j, buf in outgoing.items():
                if j not in group_set:
                    raise ValueError(f"rank {i} sends to {j} outside the group")
                buf = np.asarray(buf)
                if i != j:
                    bytes_to[j] += buf.nbytes
                    total_bytes += buf.nbytes
            intra, inter = self.mesh.split_intra_inter(i, bytes_to)
            per_rank_intra[i] = intra
            per_rank_inter[i] = inter
        for j in sorted(group_set):
            for i in sorted(group_set):
                buf = send.get(i, {}).get(j)
                if buf is not None and np.asarray(buf).size:
                    recv[j].append(np.asarray(buf))

        self.ledger.charge_collective(
            phase,
            CollectiveKind.ALLTOALLV,
            participants=group.size,
            max_bytes_intra=float(per_rank_intra.max(initial=0.0)),
            max_bytes_inter=float(per_rank_inter.max(initial=0.0)),
            total_bytes=total_bytes,
            group=group,
        )
        per_rank_sent = per_rank_intra + per_rank_inter
        m = self.ledger.metrics
        m.vector("rank_bytes", phase=phase).add(per_rank_sent)
        m.histogram("rank_byte_load", phase=phase).observe_many(
            per_rank_sent[group]
        )
        return {
            j: self._deliver(
                phase,
                np.concatenate(parts) if parts else np.array([], dtype=np.int64),
            )
            for j, parts in recv.items()
        }

    # ------------------------------------------------------------------
    # bitmap reductions
    # ------------------------------------------------------------------

    def allreduce_or(
        self,
        phase: str,
        group: np.ndarray,
        bitmaps: dict[int, np.ndarray],
    ) -> np.ndarray:
        """Bitwise-OR reduce boolean arrays over a group; all receive it.

        This is the delegate-synchronization primitive: E frontier bits
        reduce over the whole mesh, H bits over rows and columns.
        """
        group = np.asarray(group, dtype=np.int64)
        arrays = [
            np.asarray(bitmaps[int(i)], dtype=bool)
            for i in group
            if int(i) in bitmaps
        ]
        if not arrays:
            raise ValueError("allreduce_or needs at least one contribution")
        shape = arrays[0].shape
        if any(a.shape != shape for a in arrays):
            raise ValueError("all bitmap contributions must share a shape")
        out = arrays[0].copy()
        for a in arrays[1:]:
            out |= a
        payload_bytes = float(np.ceil(out.size / 8.0))  # packed on the wire
        intra, inter = self._group_traffic_split(group, payload_bytes)
        self.ledger.charge_collective(
            phase,
            CollectiveKind.ALLREDUCE,
            participants=group.size,
            max_bytes_intra=intra,
            max_bytes_inter=inter,
            total_bytes=payload_bytes * group.size,
            group=group,
        )
        return self._deliver(phase, out)

    # ------------------------------------------------------------------

    def barrier(self, phase: str, group: np.ndarray) -> None:
        group = np.asarray(group)
        self.ledger.charge_collective(
            phase, CollectiveKind.BARRIER, participants=group.size, group=group
        )

    def _group_traffic_split(
        self, group: np.ndarray, bytes_per_rank: float
    ) -> tuple[float, float]:
        """Classify a symmetric collective's per-rank volume.

        A single-rank group moves nothing; otherwise the canonical
        supernode split lives on :meth:`ProcessMesh.group_traffic_split`
        (shared with the analytic kernels and the baseline engines).
        """
        if group.size <= 1:
            return 0.0, 0.0
        intra_f, inter_f = self.mesh.group_traffic_split(group)
        return bytes_per_rank * intra_f, bytes_per_rank * inter_f
