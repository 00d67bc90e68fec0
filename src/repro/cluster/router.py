"""Deficit-round-robin router over per-tenant admission queues.

The router is a pure data structure — no clock, no asyncio — so the
fairness policy is unit-testable deterministically.  Each tenant owns a
bounded FIFO; :meth:`ClusterRouter.next_batch` selects the tenant to
serve next and pops at most one MSBFS batch (``<= batch_size``
requests) from **that tenant only** — lanes never mix graphs.

Scheduling is classic deficit round-robin with per-request cost 1:

- Each tenant has ``quantum = weight * batch_size`` credits.
- A visit tops the tenant's deficit up by one quantum (only when it has
  run dry, so credits never accumulate while a tenant sits idle), then
  serves full batches until the deficit is spent; every dequeued
  request charges 1.
- When a tenant's queue empties its deficit resets to zero — an idle
  tenant cannot bank credit and burst later.

Over one full ring cycle a backlogged tenant therefore receives
``weight * batch_size`` requests of service: a weight-4 (gold) tenant
gets 4 consecutive full batches to a weight-1 (bronze) tenant's 1, and
a hot tenant can never starve a cold one — the cold tenant's batch is
at most ``sum(other quanta)`` requests away.
"""

from __future__ import annotations

from collections import deque

__all__ = ["ClusterRouter", "QueueFull"]


class QueueFull(Exception):
    """A tenant's admission queue is at quota (caller sheds typed)."""

    def __init__(self, tenant_id: str, depth: int, quota: int) -> None:
        super().__init__(
            f"tenant {tenant_id!r} admission queue full ({depth}/{quota})"
        )
        self.tenant_id = tenant_id
        self.depth = depth
        self.quota = quota


class _TenantQueue:
    __slots__ = ("tenant_id", "queue", "quota", "weight", "quantum", "deficit")

    def __init__(self, tenant_id: str, *, quota: int, weight: int,
                 batch_size: int) -> None:
        self.tenant_id = tenant_id
        self.queue: deque = deque()
        self.quota = int(quota)
        self.weight = int(weight)
        self.quantum = int(weight) * int(batch_size)
        self.deficit = 0


class ClusterRouter:
    """Weighted-fair admission queues for a set of tenants."""

    def __init__(self, tenants, *, batch_size: int = 64) -> None:
        """``tenants`` is an iterable of objects exposing ``tenant_id``
        and a spec with ``resolved_quota`` / ``resolved_weight`` (a
        :class:`~repro.cluster.tenants.Tenant`), or ``(tenant_id,
        quota, weight)`` triples in tests."""
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        self.batch_size = int(batch_size)
        self._queues: dict[str, _TenantQueue] = {}
        self._order: list[str] = []
        self._cursor = 0
        for tenant in tenants:
            if isinstance(tenant, tuple):
                tid, quota, weight = tenant
            else:
                tid = tenant.tenant_id
                quota = tenant.spec.resolved_quota
                weight = tenant.spec.resolved_weight
            if tid in self._queues:
                raise ValueError(f"duplicate tenant id {tid!r}")
            self._queues[tid] = _TenantQueue(
                tid, quota=quota, weight=weight, batch_size=self.batch_size
            )
            self._order.append(tid)
        if not self._order:
            raise ValueError("router needs at least one tenant")

    # ------------------------------------------------------------------
    # admission
    # ------------------------------------------------------------------

    def depth(self, tenant_id: str) -> int:
        return len(self._queues[tenant_id].queue)

    @property
    def pending(self) -> int:
        return sum(len(q.queue) for q in self._queues.values())

    def push(self, tenant_id: str, request) -> None:
        """Admit one request, or raise :class:`QueueFull` at quota."""
        tq = self._queues[tenant_id]
        if len(tq.queue) >= tq.quota:
            raise QueueFull(tenant_id, len(tq.queue), tq.quota)
        tq.queue.append(request)

    def push_front(self, tenant_id: str, requests) -> None:
        """Re-queue in-flight requests at the head, preserving order.

        Failover path: quota is deliberately not enforced — requests
        that were already admitted must not be shed by the re-route.
        """
        self._queues[tenant_id].queue.extendleft(reversed(list(requests)))

    def pop(self, tenant_id: str):
        """Pop one tenant's next request (``None`` when its queue is
        empty) to fill a batch :meth:`next_batch` picked.  Deliberately
        does not charge the deficit — the forming batch already holds
        this tenant's scheduling turn."""
        queue = self._queues[tenant_id].queue
        return queue.popleft() if queue else None

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------

    def _advance(self) -> None:
        self._cursor = (self._cursor + 1) % len(self._order)

    def next_batch(self):
        """Pop the next per-tenant batch, or ``None`` if all queues idle.

        Returns ``(tenant_id, [request, ...])`` with at most
        ``batch_size`` requests, all from one tenant.  The cursor stays
        on a tenant until its deficit is spent, so a gold tenant takes
        its weighted run of consecutive batches before the ring moves
        on.
        """
        for _ in range(len(self._order)):
            tq = self._queues[self._order[self._cursor]]
            if not tq.queue:
                tq.deficit = 0
                self._advance()
                continue
            if tq.deficit < 1:
                tq.deficit += tq.quantum
            take = min(self.batch_size, len(tq.queue), tq.deficit)
            batch = [tq.queue.popleft() for _ in range(take)]
            tq.deficit -= take
            if not tq.queue:
                tq.deficit = 0
                self._advance()
            elif tq.deficit < 1:
                self._advance()
            return tq.tenant_id, batch
        return None

    def drain(self):
        """Pop every queued request (shutdown); yields (tenant_id, request)."""
        for tid in self._order:
            tq = self._queues[tid]
            while tq.queue:
                yield tid, tq.queue.popleft()
            tq.deficit = 0

    def snapshot(self) -> dict:
        """Queue depths/quotas/deficits for the /tenants telemetry view."""
        return {
            tid: {
                "depth": len(tq.queue),
                "quota": tq.quota,
                "weight": tq.weight,
                "deficit": tq.deficit,
            }
            for tid, tq in self._queues.items()
        }
