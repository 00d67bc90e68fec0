"""Cost model: counted events → modeled seconds.

Two halves:

1. :class:`CostModel` — communication timing.  Collectives use an
   alpha/beta model: latency grows with log2(participants); the bandwidth
   term divides per-rank bytes by the effective link rate, which depends on
   whether the traffic stays inside a supernode (full NIC rate) or crosses
   the oversubscribed fat-tree layer (rate / oversubscription).

2. :class:`NodeKernelRates` — per-node compute rates for the BFS kernels,
   derived from the chip model so that the chip-level experiments (Fig. 14,
   the 9x segmenting speedup) and the end-to-end BFS model share one source
   of truth:

   - *message kernels* (top-down remote-edge processing, bucketing) run at
     the OCS-RMA rate: memory-bandwidth-bound with ~47% utilization;
   - *pull with segmenting* streams edges via DMA and reads frontier bits
     via RMA from sibling LDMs;
   - *pull without segmenting* pays one GLD-latency random read per scanned
     arc, spread over all CPEs — the 9x gap of §6.4 emerges from these two
     expressions;
   - *sparse kernels* too small to amortize CPE spawning run on the MPE at
     GLD latency per arc (why L2L costs so much of the total at scale,
     Fig. 10).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import cached_property

from repro.machine.chip import ChipSpec, SW26010_PRO
from repro.machine.network import MachineSpec

__all__ = ["CollectiveKind", "CostModel", "NodeKernelRates"]


class CollectiveKind(enum.Enum):
    """Communication primitive categories, matching the paper's Fig. 11."""

    ALLTOALLV = "alltoallv"
    ALLGATHER = "allgather"
    REDUCE_SCATTER = "reduce_scatter"
    ALLREDUCE = "allreduce"
    BARRIER = "barrier"
    P2P = "p2p"


@dataclass(frozen=True)
class CostModel:
    """Converts communication volumes into modeled seconds.

    A collective's latency, link rates and ring factor depend only on
    its kind and participant count, so each ``(kind, participants)``
    pair is priced once (:meth:`_collective_terms`) and every later
    charge of it costs only its bandwidth arithmetic.
    """

    machine: MachineSpec
    #: ``(kind, participants)`` -> :meth:`_collective_terms`.
    _terms: dict = field(
        default_factory=dict, init=False, compare=False, repr=False
    )

    def collective_time(
        self,
        kind: CollectiveKind,
        participants: int,
        max_bytes_per_rank_intra: float = 0.0,
        max_bytes_per_rank_inter: float = 0.0,
    ) -> float:
        """Seconds for one collective.

        Parameters
        ----------
        kind:
            Which primitive; alltoallv pays latency proportional to the
            participant count (it opens P buffers), the tree collectives
            pay log2(P).
        participants:
            Ranks taking part (a row, a column, or the whole mesh).
        max_bytes_per_rank_intra / max_bytes_per_rank_inter:
            The busiest rank's send volume that stays within its supernode
            / crosses supernodes.  The max rank bounds the completion time
            of a balanced collective implementation.
        """
        if participants < 1:
            raise ValueError("participants must be >= 1")
        key = (kind, participants)
        terms = self._terms.get(key)
        if terms is None:
            terms = self._terms[key] = self._collective_terms(kind, participants)
        latency, intra_rate, inter_rate, volume_factor = terms
        if volume_factor is None:
            return latency
        return latency + (
            max_bytes_per_rank_intra / intra_rate
            + max_bytes_per_rank_inter / inter_rate
        ) * volume_factor

    def _collective_terms(self, kind: CollectiveKind, participants: int):
        """``(latency, intra rate, inter rate, volume factor)`` of one
        collective: seconds = latency + (intra bytes / intra rate + inter
        bytes / inter rate) * volume factor, or the latency alone when
        the factor is ``None`` (a barrier moves no data)."""
        m = self.machine
        if kind is CollectiveKind.BARRIER:
            return m.collective_latency(participants) / m.work_scale, None, None, None
        if kind in (CollectiveKind.ALLTOALLV, CollectiveKind.P2P):
            # Per-destination message setup dominates sparse alltoallv:
            # this is the low-parallelism latency floor the paper observes
            # for L2L in sparse iterations.
            latency = m.p2p_latency_s + m.hop_latency_s * max(participants - 1, 0)
        else:
            latency = m.collective_latency(participants)
        # Fixed overheads shrink by the work scale (volume terms are
        # already expressed in counted units); see MachineSpec.work_scale.
        latency /= m.work_scale
        volume_factor = 1.0
        if kind in (
            CollectiveKind.ALLGATHER,
            CollectiveKind.REDUCE_SCATTER,
            CollectiveKind.ALLREDUCE,
        ):
            # Ring-style collectives move (P-1)/P of the data volume.
            volume_factor = (participants - 1) / max(participants, 1)
            if kind is CollectiveKind.ALLREDUCE:
                # reduce-scatter + allgather; doubling is exact, so
                # folding it into the factor leaves every product as is.
                volume_factor *= 2.0
        return latency, m.nic_bytes_per_s, m.inter_supernode_bytes_per_s, volume_factor


@dataclass(frozen=True)
class NodeKernelRates:
    """Per-node kernel rates (items/second) derived from a chip model."""

    chip: ChipSpec = field(default=SW26010_PRO)
    #: Bytes per BFS message (vertex id + parent, packed).
    message_bytes: int = 8
    #: Fraction of pull lookups answered by a sibling CPE via RMA under
    #: segmenting (measured ~63/64 for a round-robin layout).
    rma_lookup_fraction: float = 63.0 / 64.0
    #: Pipeline efficiency of overlapping DMA edge streaming with RMA bit
    #: lookups in the segmented pull kernel.
    pull_pipeline_efficiency: float = 0.85
    #: Threshold below which a kernel cannot amortize CPE spawning and runs
    #: on the MPE (items per kernel invocation).
    cpe_spawn_threshold: int = 2048
    #: Seconds to spawn work on the CPE clusters.
    cpe_spawn_latency_s: float = 8.0e-6

    # ------------------------------------------------------------------
    # message-style kernels (OCS-RMA bound)
    # ------------------------------------------------------------------

    def message_throughput_bytes_per_s(self, num_cgs: int | None = None) -> float:
        """Sorted-message throughput of OCS-RMA on ``num_cgs`` CGs.

        Memory-bandwidth bound: one DMA read and one DMA write per message,
        plus per-message CPE work on the producer/consumer halves and the
        cross-CG atomics when more than one CG participates.  Mirrors the
        accounting of :func:`repro.sort.ocs.simulate_ocs_rma` in closed
        form.
        """
        chip = self.chip
        cgs = chip.num_core_groups if num_cgs is None else num_cgs
        dma_s_per_byte = 2.0 / (chip.dma_peak_bytes_per_s * cgs / chip.num_core_groups)
        producers = cgs * chip.cpes_per_cg / 2
        # Per message, producer and consumer each spend cpe_message_ns of
        # register work; messages are spread over `producers` pairs.
        cpe_s_per_byte = 2.0 * chip.cpe_message_ns * 1e-9 / self.message_bytes / producers
        batch_msgs = 512 // self.message_bytes
        rma_s_per_byte = chip.rma_batch_time(512) / 512 / producers
        atomic_s_per_byte = 0.0
        if cgs > 1:
            # One main-memory atomic per flushed batch to claim the shared
            # output cursor across CGs (§4.4: "atomic operations that
            # rarely conflict").
            atomic_s_per_byte = (
                chip.cross_cg_atomic_ns * 1e-9 / (batch_msgs * self.message_bytes)
            ) / producers
        s_per_byte = dma_s_per_byte + cpe_s_per_byte + rma_s_per_byte + atomic_s_per_byte
        return 1.0 / s_per_byte

    def message_rate(self, num_cgs: int | None = None) -> float:
        """Messages/second a node generates-and-buckets via OCS-RMA."""
        return self.message_throughput_bytes_per_s(num_cgs) / self.message_bytes

    # ------------------------------------------------------------------
    # pull (bottom-up) kernels on the EH2EH core subgraph
    # ------------------------------------------------------------------

    def pull_rate_segmented(self) -> float:
        """Arcs/second for segmented bottom-up (frontier bits in LDM).

        Each scanned arc streams 8 bytes of edge data via DMA and performs
        one LDM/RMA bit lookup; lookups across the CG's CPEs proceed in
        parallel, so the RMA latency amortizes per-CPE.
        """
        chip = self.chip
        dma_s = 8.0 / chip.dma_peak_bytes_per_s
        lookup_ns = (
            self.rma_lookup_fraction * chip.rma_pipelined_get_ns
            + (1.0 - self.rma_lookup_fraction) * 2.0  # local LDM access
        )
        lookup_s = lookup_ns * 1e-9 / chip.total_cpes
        return self.pull_pipeline_efficiency / (dma_s + lookup_s)

    def pull_rate_unsegmented(self) -> float:
        """Arcs/second for naive bottom-up (GLD per frontier-bit read)."""
        chip = self.chip
        dma_s = 8.0 / chip.dma_peak_bytes_per_s
        gld_s = chip.gld_latency_ns * 2.0 * 1e-9 / chip.total_cpes
        return 1.0 / (dma_s + gld_s)

    def pull_rate_ldcache(self, working_set_bits: int) -> float:
        """Arcs/second for bottom-up through LDCache (§3.1.2).

        LDCache shares physical space with LDM and caches main-memory
        loads.  Its hit rate collapses once the frontier bit-vector
        exceeds the per-CPE cache capacity — the paper's point that "the
        cache size is also not large enough to hold the hot data given
        millions of vertices each node is responsible for", which is why
        segmenting + RMA was needed.
        """
        chip = self.chip
        cache_bits = chip.ldm_bytes * 8  # LDCache can take up to the LDM
        hit_rate = min(1.0, cache_bits / max(working_set_bits, 1))
        dma_s = 8.0 / chip.dma_peak_bytes_per_s
        lookup_ns = hit_rate * 3.0 + (1.0 - hit_rate) * chip.gld_latency_ns * 2.0
        lookup_s = lookup_ns * 1e-9 / chip.total_cpes
        return 1.0 / (dma_s + lookup_s)

    def pull_rate(self, segmenting: bool) -> float:
        return self.pull_rate_segmented() if segmenting else self.pull_rate_unsegmented()

    # ------------------------------------------------------------------
    # local push / bitmap update kernels
    # ------------------------------------------------------------------

    def local_push_rate(self) -> float:
        """Arcs/second for node-local top-down over delegated subgraphs.

        Reads are sequential (CSR stream) and writes go through the
        two-stage OCS-RMA destination update, so the rate tracks the
        message throughput.
        """
        return self.message_rate()

    def mpe_rate(self) -> float:
        """Arcs/second of the sequential MPE fallback (latency bound)."""
        return 1.0 / (2.0 * self.chip.gld_latency_ns * 1e-9)

    @cached_property
    def _mpe_rate(self) -> float:
        # The rates are frozen, so :meth:`kernel_time` reads it once.
        return self.mpe_rate()

    def kernel_time(self, items: int, rate: float, work_scale: float = 1.0) -> float:
        """Seconds for a kernel over ``items``, with the MPE fallback.

        Kernels below the CPE spawn threshold run on the MPE: their cost is
        latency- not bandwidth-bound.  This models the paper's observation
        that extremely sparse iterations (small L2L frontiers) show "low
        parallelism" and keep the MPE busy instead of the CPE clusters.

        ``work_scale`` applies the machine's extrapolation factor K: the
        kernel stands for ``items * K`` paper-scale items, whose time is
        then divided back by K — so the spawn latency amortizes and the
        MPE fallback triggers exactly as it would at paper scale.
        """
        if items <= 0:
            return 0.0
        effective = items * work_scale
        mpe_time = effective / self._mpe_rate / work_scale
        cpe_time = (self.cpe_spawn_latency_s + effective / rate) / work_scale
        if effective < self.cpe_spawn_threshold:
            # Tiny kernels stay on the MPE...  unless spawning would still
            # be cheaper (a tuned runtime takes the faster engine, which
            # also keeps the model monotone in the work).
            return min(mpe_time, cpe_time)
        return cpe_time

    def segmenting_speedup(self) -> float:
        """Modeled pull speedup of segmenting (paper reports 9x)."""
        return self.pull_rate_segmented() / self.pull_rate_unsegmented()
