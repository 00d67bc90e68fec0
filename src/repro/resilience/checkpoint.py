"""Level-synchronous checkpointing of traversal state.

A level-synchronous traversal has a natural consistency point: the
iteration boundary, where every rank has committed its activations and
the global state plus the per-iteration records fully determine the rest
of the run.  :class:`LevelCheckpointer` snapshots exactly that state at a
configurable cadence (``--checkpoint-every N``), fingerprints each
snapshot with sha256, and can hand the latest one back to
:class:`~repro.core.kernels.scheduler.LevelSyncScheduler` as a ``resume``
point so a crashed run re-executes only the levels after the last
checkpoint.

There is one snapshot type, :class:`Checkpoint`, for every traversal
mode: a ``key`` (the BFS root, or a vertex program's name), the frontier
``active``, and a ``state`` dict of named arrays.  BFS stores
``{"parent": int64[n], "visited": packbits(bool[n])}``; a vertex program
stores whatever its ``snapshot()`` declares — SSSP distances, PageRank
ranks or delta-stepping bucket control all persist without
per-algorithm code here.

The *cost* of checkpointing is part of the experiment, not hidden
bookkeeping: each save charges the :class:`~repro.runtime.ledger.TrafficLedger`
one ``checkpoint``-phase ALLGATHER sized at the snapshot's bytes (every
rank persists its partition slice; the supernode intra/inter split comes
from :meth:`~repro.runtime.mesh.ProcessMesh.group_traffic_split`), so
checkpoint overhead shows up in the Fig. 10/11 phase and collective
breakdowns and in RunReports like any other phase.  Restores charge a
``recovery``-phase broadcast of the same volume.

Snapshots live in memory by default (``keep`` most recent); pass
``dir=`` to also persist each one as a compressed ``.npz`` with an
embedded JSON meta record (schema tag, fingerprint, iteration records)
that :meth:`Checkpoint.load` round-trips exactly.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.core.metrics import IterationRecord
from repro.machine.costmodel import CollectiveKind
from repro.obs.metrics import NULL_METRICS

__all__ = [
    "Checkpoint",
    "CheckpointError",
    "LevelCheckpointer",
    "CHECKPOINT_SCHEMA",
]

#: Bump on incompatible snapshot layout changes.
CHECKPOINT_SCHEMA = "repro.checkpoint/2"


class CheckpointError(RuntimeError):
    """A snapshot failed to verify or load."""


def _fingerprint(key, iteration: int, state: dict, active) -> str:
    h = hashlib.sha256()
    h.update(f"{CHECKPOINT_SCHEMA}:{key}:{iteration}".encode())
    for name in sorted(state):
        arr = np.ascontiguousarray(state[name])
        h.update(f"{name}:{arr.dtype.str}:{arr.shape}".encode())
        h.update(arr.tobytes())
    h.update(np.packbits(active).tobytes())
    return h.hexdigest()


@dataclass(frozen=True)
class Checkpoint:
    """One immutable snapshot of traversal state at an iteration boundary.

    :meth:`capture` deep-copies live state and fingerprints it.  A
    snapshot may also be constructed directly from *derived* state with
    no fingerprint — the incremental result patcher
    (:mod:`repro.dynamic.patch`) and degraded recovery do — in which case
    ``state``/``active`` must be exactly what a fresh run would hold
    after completing ``iteration``.
    """

    #: BFS root (int) or vertex-program name (str).
    key: int | str
    #: Last completed iteration index (state is *after* this level).
    iteration: int
    active: np.ndarray
    state: dict[str, np.ndarray]
    #: Per-iteration records completed so far (restored onto the result).
    records: tuple[IterationRecord, ...] = ()
    fingerprint: str = ""

    @classmethod
    def capture(cls, *, key, iteration, state, active, records=()):
        """Deep-copy live scheduler state into an immutable snapshot."""
        key = key if isinstance(key, str) else int(key)
        state = {k: np.array(v, copy=True) for k, v in state.items()}
        active = np.array(active, dtype=bool, copy=True)
        return cls(
            key=key,
            iteration=int(iteration),
            active=active,
            state=state,
            records=tuple(records),
            fingerprint=_fingerprint(key, iteration, state, active),
        )

    @property
    def nbytes(self) -> int:
        """Persisted volume: every state array plus the packed frontier
        (BFS: 8 B/vertex parents + two packed bitmaps)."""
        state_bytes = sum(int(arr.nbytes) for arr in self.state.values())
        return state_bytes + (self.active.size + 7) // 8

    def verify(self) -> "Checkpoint":
        """Recompute the sha256 fingerprint; raise on mismatch."""
        actual = _fingerprint(self.key, self.iteration, self.state, self.active)
        if actual != self.fingerprint:
            raise CheckpointError(
                f"checkpoint fingerprint mismatch at iteration {self.iteration}: "
                f"expected {self.fingerprint[:12]}…, got {actual[:12]}…"
            )
        return self

    # ------------------------------------------------------------------
    # disk round-trip
    # ------------------------------------------------------------------

    def save_npz(self, path: str | Path) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        meta = {
            "schema": CHECKPOINT_SCHEMA,
            "key": self.key,
            "iteration": self.iteration,
            "fingerprint": self.fingerprint,
            "state_keys": sorted(self.state),
            "records": [dataclasses.asdict(r) for r in self.records],
        }
        np.savez_compressed(
            path,
            meta=np.array([json.dumps(meta)]),
            active=np.packbits(self.active),
            n=np.array([self.active.size], dtype=np.int64),
            **{f"state_{k}": v for k, v in self.state.items()},
        )
        return path

    @classmethod
    def load(cls, path: str | Path) -> "Checkpoint":
        try:
            with np.load(path, allow_pickle=False) as data:
                meta = json.loads(str(data["meta"][0]))
                if meta.get("schema") != CHECKPOINT_SCHEMA:
                    raise CheckpointError(
                        f"unsupported checkpoint schema {meta.get('schema')!r}"
                    )
                n = int(data["n"][0])
                snap = cls(
                    key=meta["key"],
                    iteration=int(meta["iteration"]),
                    active=np.unpackbits(data["active"], count=n).astype(bool),
                    state={
                        k: data[f"state_{k}"] for k in meta["state_keys"]
                    },
                    records=tuple(
                        IterationRecord(**r) for r in meta["records"]
                    ),
                    fingerprint=meta["fingerprint"],
                )
        except (OSError, KeyError, ValueError) as exc:
            raise CheckpointError(f"cannot load checkpoint {path}: {exc}") from exc
        return snap.verify()


@dataclass
class LevelCheckpointer:
    """Cadence-driven snapshot store attached to one scheduler run.

    ``every=N`` snapshots after every Nth completed level (``every=0``
    disables, the default at the CLI).  The newest ``keep`` snapshots
    stay in memory; older ones are dropped (and their ``.npz`` files
    deleted when ``dir`` persistence is on), modelling the bounded
    burst-buffer budget a real machine would give checkpoints.
    """

    every: int = 0
    mesh: object | None = None
    keep: int = 2
    dir: str | Path | None = None
    metrics: object = field(default=NULL_METRICS, repr=False)
    snapshots: list[Checkpoint] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.every < 0:
            raise ValueError("checkpoint cadence must be >= 0")
        if self.keep < 1:
            raise ValueError("keep must be >= 1")

    def due(self, iteration: int) -> bool:
        return self.every > 0 and (iteration + 1) % self.every == 0

    def _charge(self, ledger, snap, phase: str, counter: str) -> None:
        if self.mesh is not None:
            participants = self.mesh.num_ranks
            ranks = np.arange(participants)
            intra_frac, inter_frac = self.mesh.group_traffic_split(ranks)
        else:
            participants, intra_frac, inter_frac = 1, 1.0, 0.0
        per_rank = snap.nbytes / participants
        ledger.charge_collective(
            phase,
            CollectiveKind.ALLGATHER,
            participants=participants,
            max_bytes_intra=per_rank * intra_frac,
            max_bytes_inter=per_rank * inter_frac,
            total_bytes=float(snap.nbytes),
        )
        self.metrics.counter(counter).inc()
        self.metrics.counter("checkpoint_bytes", op=phase).inc(snap.nbytes)

    def save(self, *, ledger, key, iteration, state, active,
             records=()) -> Checkpoint:
        """Snapshot state after ``iteration`` and charge the write cost."""
        snap = Checkpoint.capture(
            key=key, iteration=iteration, state=state, active=active,
            records=records,
        )
        self.snapshots.append(snap)
        if self.dir is not None:
            snap.save_npz(self._path(snap))
        while len(self.snapshots) > self.keep:
            evicted = self.snapshots.pop(0)
            if self.dir is not None:
                self._path(evicted).unlink(missing_ok=True)
        self._charge(ledger, snap, "checkpoint", "checkpoints")
        return snap

    def _path(self, snap) -> Path:
        return Path(self.dir) / f"ckpt_{snap.key}_it{snap.iteration}.npz"

    def latest(self) -> Checkpoint | None:
        return self.snapshots[-1] if self.snapshots else None

    def charge_restore(self, ledger, snap) -> None:
        """Price re-reading and broadcasting a snapshot during recovery."""
        self._charge(ledger, snap, "recovery", "restores")

    def clear(self) -> None:
        self.snapshots.clear()
