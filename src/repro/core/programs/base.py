"""The vertex-program contract (paper §8's "algorithm neutrality").

A :class:`VertexProgram` is the gather/apply/scatter-style object that
lets any frontier-sweep algorithm run through the six 1.5D
:class:`~repro.core.kernels.base.ComponentKernel`\\ s and the
:class:`~repro.core.kernels.scheduler.LevelSyncScheduler` — inheriting
direction choice, ledger charging, spans, metrics, fault injection and
checkpointing with zero per-algorithm glue.  The split of
responsibilities:

- the **scheduler** owns the iteration loop: frontier bookkeeping,
  densest-first component order, per-component direction choice,
  resilience hooks, metric emission;
- the **kernels** own arc selection and pricing: push CSR or pull
  groups, per-rank compute charges, alltoallv routing at the program's
  ``message_bytes``;
- the **program** owns only values: per-vertex state arrays, the
  per-arc ``gather`` message, the per-destination ``combine``, the
  ``apply`` activation rule, and the per-iteration convergence test in
  ``end_iteration``.

See ``docs/programs.md`` for the full contract and a worked example.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field

import numpy as np

from repro.core.metrics import IterationRecord
from repro.runtime.ledger import TrafficLedger

__all__ = ["VertexProgram", "ProgramRunResult", "EMPTY_IDS"]

#: The activation of a sub-iteration that updated nothing.
EMPTY_IDS: np.ndarray = np.array([], dtype=np.int64)


class VertexProgram(ABC):
    """One frontier-sweep algorithm, expressed as per-vertex state plus
    gather/combine/apply hooks.

    Lifecycle (driven by ``LevelSyncScheduler.run_program``)::

        bind(part)                       # allocate state arrays
        active = initial_frontier()
        for it in 0..max_iterations:
            begin_iteration(it, active)
            for each component (densest first):
                arcs = kernel selection (push or pull)
                edge_sweep(name, src, dst)   # gather -> combine -> apply
            next = end_iteration(it, active, touched)
            active = next                # None or empty mask ends the run
        end_run()

    Subclasses implement :meth:`_init_state`, :meth:`initial_frontier`,
    :meth:`gather` and :meth:`apply`; everything else has a default.
    State must live entirely in the arrays returned by :meth:`snapshot`
    (plus what :meth:`restore` rebuilds) so checkpoint/recovery works for
    free.
    """

    #: Registry key and metric/span label.
    name: str = "program"
    #: Whether the bottom-up (pull) path produces the same values; the
    #: scheduler only consults the §4.2 direction heuristics when true.
    supports_pull: bool = False
    #: Force "push"/"pull" for every component (None = let the scheduler
    #: decide when ``supports_pull``, else push).
    forced_direction: str | None = None
    #: Wire size of one (vertex, value) message for ledger pricing.
    message_bytes: int = 16
    #: Hard iteration cap (programs converge via ``end_iteration``).
    max_iterations: int = 10_000

    def __init__(self) -> None:
        self.part = None
        self.n = 0
        self.converged = False

    # -- lifecycle -----------------------------------------------------

    def bind(self, part) -> None:
        """Attach to a partitioned graph and allocate state arrays."""
        self.part = part
        self.n = int(part.num_vertices)
        self.converged = False
        self._init_state()

    @abstractmethod
    def _init_state(self) -> None:
        """Allocate per-vertex state for ``self.n`` vertices."""

    @abstractmethod
    def initial_frontier(self) -> np.ndarray:
        """Boolean mask of the vertices active in iteration 0."""

    def begin_iteration(self, iteration: int, active: np.ndarray) -> None:
        """Hook before the component sweeps of one iteration."""

    def end_iteration(
        self, iteration: int, active: np.ndarray, touched: np.ndarray
    ) -> np.ndarray | None:
        """Return the next frontier (``None``/empty ends the run).

        ``touched`` is the union of every component's activations this
        iteration.  The default is plain frontier propagation: the
        touched vertices become the next frontier, and the run converges
        when nothing was touched.
        """
        if not touched.any():
            self.converged = True
            return None
        return touched.copy()

    def end_run(self) -> None:
        """Hook after the loop ends (finalize derived state)."""

    # -- gather / combine / apply --------------------------------------

    @abstractmethod
    def gather(
        self, src: np.ndarray, dst: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
        """Produce messages for the selected arcs.

        Returns ``(src, dst, msg)`` — possibly a *subset* of the input
        arcs (drop arcs that cannot improve their destination before the
        shuffle; that filtering is the algorithm's business, not the
        kernel's) — or ``None`` when nothing is worth sending.
        """

    def combine(
        self, src: np.ndarray, dst: np.ndarray, msg: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
        """Reduce messages per destination.

        The default is the deterministic min-combine every shortest-path
        style program wants: stable-sort by (value, dst) and keep each
        destination's first (minimal) message, ties broken by the arcs'
        selection order.  Returns ``(dst, value, src)`` with one entry
        per destination, or ``None`` to skip apply (deferred programs
        accumulate in combine instead).
        """
        order = np.lexsort((msg, dst))
        d_s, m_s, s_s = dst[order], msg[order], src[order]
        first = np.concatenate(([True], d_s[1:] != d_s[:-1]))
        return d_s[first], m_s[first], s_s[first]

    def apply(
        self, dst: np.ndarray, val: np.ndarray, src: np.ndarray | None
    ) -> np.ndarray:
        """Commit combined values to state; return the activated IDs.

        Applied *eagerly* per component, so later (sparser) components of
        the same iteration see the fresh values — the §4.2 freshness rule
        extended from visited bits to program state.  Deferred programs
        (combine returns ``None``) never reach here.
        """
        return EMPTY_IDS

    def edge_sweep(
        self, component: str, src: np.ndarray, dst: np.ndarray
    ) -> np.ndarray:
        """One component's gather → combine → apply; returns activations.

        Kernels call this with the arcs they selected (push or pull
        order).  Override only for algorithms that don't decompose into
        the three hooks; the built-ins all use the default driver.
        """
        if src.size == 0:
            return EMPTY_IDS
        gathered = self.gather(src, dst)
        if gathered is None:
            return EMPTY_IDS
        g_src, g_dst, msg = gathered
        if g_dst.size == 0:
            return EMPTY_IDS
        combined = self.combine(g_src, g_dst, msg)
        if combined is None:
            return EMPTY_IDS
        c_dst, c_val, c_src = combined
        return self.apply(c_dst, c_val, c_src)

    # -- direction economics -------------------------------------------

    def pull_candidates(self) -> np.ndarray:
        """Destinations a bottom-up sweep must visit (default: all)."""
        return np.ones(self.n, dtype=bool)

    def settled_mask(self) -> np.ndarray:
        """Vertices whose state is final — the "visited" proxy the §4.2
        direction heuristics and the delegate-sync pricing read (default:
        none, i.e. every vertex still counts as in-play)."""
        return np.zeros(self.n, dtype=bool)

    # -- resilience ----------------------------------------------------

    def snapshot(self) -> dict[str, np.ndarray]:
        """Copy of every state array (control scalars as 0-d arrays)."""
        return {k: np.array(v) for k, v in self.state_arrays().items()}

    def restore(self, state: dict[str, np.ndarray]) -> None:
        """Rebuild state from a :meth:`snapshot` (inverse operation)."""
        own = self.state_arrays()
        for key, arr in state.items():
            if key not in own:
                raise KeyError(f"unknown state array {key!r} for {self.name}")
            np.copyto(own[key], arr)

    # -- results -------------------------------------------------------

    @abstractmethod
    def state_arrays(self) -> dict[str, np.ndarray]:
        """The live per-vertex state arrays, by name."""

    def info(self) -> dict:
        """Scalar outputs (counters, convergence details) for results."""
        return {}


@dataclass
class ProgramRunResult:
    """Outcome of one vertex-program run through the scheduler."""

    program: str
    state: dict[str, np.ndarray]
    iterations: list[IterationRecord]
    ledger: TrafficLedger
    num_input_edges: int
    converged: bool
    info: dict = field(default_factory=dict)

    @property
    def num_iterations(self) -> int:
        return len(self.iterations)

    @property
    def total_seconds(self) -> float:
        return self.ledger.total_seconds

    @property
    def total_bytes(self) -> float:
        return self.ledger.total_bytes

    def gteps(self) -> float:
        if self.total_seconds <= 0:
            return 0.0
        return self.num_input_edges / self.total_seconds / 1e9
