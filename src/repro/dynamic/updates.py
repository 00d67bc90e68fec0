"""The batched edge-update log: seeded deterministic update streams.

An update stream is a sequence of :class:`UpdateBatch` objects over an
evolving *canonical* undirected edge set: endpoints ordered ``lo < hi``,
self loops dropped, duplicates collapsed.  Canonical form is what makes
deletion well-defined (there is exactly one copy of ``{u, v}`` to
delete) and what makes the incremental-vs-rebuild equivalence gate
meaningful (both sides partition the identical edge set).

Streams are generated, not recorded: :func:`generate_update_stream`
draws inserts and deletes from a seeded RNG *against the live edge set*,
so every delete targets an edge that exists at that point of the stream
and every insert targets a pair that does not.  The same
``(base graph, spec)`` always produces the same stream — that is what
lets the CLI smoke gate, the tests, and the benchmark all replay
identical histories.

Edge weights under churn: position-indexed weight arrays (the static
:func:`~repro.core.programs.sssp.generate_weights`) shift when the edge
list changes, which would make an incremental SSSP diverge from a
rebuild for reasons that have nothing to do with the repair.
:func:`weights_for_edges` instead hashes the endpoint *content*
(splitmix64 of the canonical pair plus a seed), so an edge's weight is a
pure function of its identity and survives any insertion order.

The spec grammar (``parse_update_spec``) is the CLI surface::

    KIND[:key=value[,key=value...]]

    KIND    insert | delete | mixed
    keys    batches=<int >=1>   number of batches       (default 4)
            size=<int >=1>      updates per batch       (default 64)
            frac=<float 0..1>   insert fraction, mixed  (default 0.5)

Examples: ``insert``, ``delete:batches=2,size=128``,
``mixed:batches=8,size=32,frac=0.25``.  Malformed specs raise
:class:`UpdateSpecError`; the CLI maps that to exit code 2 with usage,
matching the ``chaos``/``algo`` convention.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.lanes import distinct
from repro.core.partition import mix64
from repro.core.subgraphs import arc_keys, check_edge_ids, member

__all__ = [
    "UpdateBatch",
    "UpdateSpec",
    "UpdateSpecError",
    "apply_updates",
    "canonical_edges",
    "generate_update_stream",
    "parse_update_spec",
    "weights_for_edges",
]

#: Spec kinds understood by the generator.
UPDATE_KINDS = ("insert", "delete", "mixed")


class UpdateSpecError(ValueError):
    """A malformed ``--updates`` spec (CLI maps this to exit code 2)."""


@dataclass(frozen=True)
class UpdateSpec:
    """Parsed form of one update-stream spec."""

    kind: str
    batches: int = 4
    size: int = 64
    #: Insert fraction for ``mixed`` streams (inserts per batch =
    #: ``round(size * frac)``, the rest deletes).
    frac: float = 0.5

    def __post_init__(self) -> None:
        if self.kind not in UPDATE_KINDS:
            raise UpdateSpecError(
                f"unknown update kind {self.kind!r}; expected one of "
                f"{', '.join(UPDATE_KINDS)}"
            )
        if self.batches < 1:
            raise UpdateSpecError("batches must be >= 1")
        if self.size < 1:
            raise UpdateSpecError("size must be >= 1")
        if not 0.0 <= self.frac <= 1.0:
            raise UpdateSpecError("frac must be in [0, 1]")


def parse_update_spec(spec: str) -> UpdateSpec:
    """Parse ``KIND[:key=value,...]`` into an :class:`UpdateSpec`.

    Raises :class:`UpdateSpecError` on any malformed input.
    """
    spec = spec.strip()
    if not spec:
        raise UpdateSpecError("empty update spec")
    kind, _, rest = spec.partition(":")
    kind = kind.strip()
    kwargs: dict[str, object] = {}
    if rest:
        for item in rest.split(","):
            key, eq, value = item.partition("=")
            key = key.strip()
            value = value.strip()
            if not eq or not key or not value:
                raise UpdateSpecError(
                    f"malformed spec item {item!r}; expected key=value"
                )
            try:
                if key in ("batches", "size"):
                    kwargs[key] = int(value)
                elif key == "frac":
                    kwargs[key] = float(value)
                else:
                    raise UpdateSpecError(
                        f"unknown spec key {key!r}; expected batches, "
                        f"size or frac"
                    )
            except ValueError as exc:
                if isinstance(exc, UpdateSpecError):
                    raise
                raise UpdateSpecError(
                    f"bad value for {key!r}: {value!r}"
                ) from exc
    return UpdateSpec(kind=kind, **kwargs)


@dataclass(frozen=True)
class UpdateBatch:
    """One batch of undirected edge updates.

    ``src``/``dst`` are canonical endpoints (``src < dst``); ``op`` is
    ``+1`` for insert and ``-1`` for delete, aligned with them.
    """

    src: np.ndarray
    dst: np.ndarray
    op: np.ndarray

    @property
    def size(self) -> int:
        return int(self.op.size)


def canonical_edges(
    src: np.ndarray, dst: np.ndarray, num_vertices: int
) -> tuple[np.ndarray, np.ndarray]:
    """Canonicalize an undirected edge list: ``lo < hi``, no self loops,
    no duplicates, sorted by packed key.  The fixed order makes the
    canonical arrays themselves comparable across histories.

    The set is one value sort of the packed keys
    (:func:`~repro.core.lanes.distinct`).  Every id must satisfy
    ``0 <= id < num_vertices``: a pair outside raises :class:`ValueError`
    naming the first one, since its key would decode into a different
    edge.
    """
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    check_edge_ids(src, dst, num_vertices)
    keep = src != dst
    lo = np.minimum(src[keep], dst[keep])
    hi = np.maximum(src[keep], dst[keep])
    keys = distinct(arc_keys(lo, hi, num_vertices))
    return keys // num_vertices, keys % num_vertices


def apply_updates(
    lo: np.ndarray,
    hi: np.ndarray,
    batch: UpdateBatch,
    num_vertices: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Apply one batch to a canonical edge set, returning the new set.

    Inserting an edge that exists and deleting one that does not are
    no-ops — the same idempotent semantics
    :class:`~repro.dynamic.repair.IncrementalGraph` uses, so the gate's
    from-scratch side tracks the incremental side exactly.  The commit
    is sorted-key algebra: the union is one value sort of the live and
    inserted keys (:func:`~repro.core.lanes.distinct`), the difference
    a :func:`~repro.core.subgraphs.member` mask against the sorted
    deletes.
    """
    n = num_vertices
    ins = batch.op > 0
    keys = distinct(np.concatenate([
        arc_keys(lo, hi, n), arc_keys(batch.src[ins], batch.dst[ins], n),
    ]))
    drop = np.sort(arc_keys(batch.src[~ins], batch.dst[~ins], n))
    keys = keys[~member(keys, drop)]
    return keys // n, keys % n


def weights_for_edges(
    src: np.ndarray, dst: np.ndarray, num_vertices: int, *, seed: int = 2
) -> np.ndarray:
    """Content-hashed uniform [0, 1) weights, one per undirected edge.

    ``w({u, v})`` depends only on the canonical pair and the seed — not
    on the edge's position in any list — so incremental repair and
    from-scratch rebuild see identical weights.  Usable directly as the
    ``weight_of`` callable of the SSSP programs.
    """
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    key = arc_keys(np.minimum(src, dst), np.maximum(src, dst), num_vertices)
    h = mix64(mix64(key.astype(np.uint64)) + np.uint64(seed))
    # 53 high-quality bits -> float64 in [0, 1).
    return (h >> np.uint64(11)).astype(np.float64) * (2.0 ** -53)


def generate_update_stream(
    src: np.ndarray,
    dst: np.ndarray,
    num_vertices: int,
    spec: UpdateSpec,
    *,
    seed: int = 7,
) -> list[UpdateBatch]:
    """Generate a deterministic update stream against a base graph.

    Deletes are drawn (without replacement, per batch) from the edges
    *live at that point of the stream*; inserts are drawn from pairs not
    currently present.  The stream is a pure function of
    ``(base edges, num_vertices, spec, seed)``.
    """
    rng = np.random.default_rng(seed)
    lo, hi = canonical_edges(src, dst, num_vertices)
    live = arc_keys(lo, hi, num_vertices)

    if spec.kind == "insert":
        per_batch = [(spec.size, 0)] * spec.batches
    elif spec.kind == "delete":
        per_batch = [(0, spec.size)] * spec.batches
    else:
        n_ins = int(round(spec.size * spec.frac))
        per_batch = [(n_ins, spec.size - n_ins)] * spec.batches

    batches = []
    for n_ins, n_del in per_batch:
        ins_keys = _draw_absent_pairs(rng, live, num_vertices, n_ins)
        n_del_eff = min(n_del, live.size)
        del_keys = (
            np.sort(rng.choice(live, size=n_del_eff, replace=False))
            if n_del_eff
            else np.array([], dtype=np.int64)
        )
        b_keys = np.concatenate([ins_keys, del_keys])
        op = np.concatenate(
            [
                np.ones(ins_keys.size, dtype=np.int8),
                -np.ones(del_keys.size, dtype=np.int8),
            ]
        )
        batches.append(
            UpdateBatch(
                src=b_keys // num_vertices,
                dst=b_keys % num_vertices,
                op=op,
            )
        )
        live = distinct(np.concatenate([live, ins_keys]))
        live = live[~member(live, del_keys)]
    return batches


def _draw_absent_pairs(
    rng: np.random.Generator,
    live: np.ndarray,
    num_vertices: int,
    count: int,
) -> np.ndarray:
    """``count`` distinct canonical pair keys not present in ``live``."""
    if count == 0:
        return np.array([], dtype=np.int64)
    picked: list[np.ndarray] = []
    have = 0
    # Rejection sampling; each round draws with slack, so a couple of
    # rounds suffice unless the graph is nearly complete.
    for _ in range(64):
        need = count - have
        a = rng.integers(0, num_vertices, size=2 * need + 8, dtype=np.int64)
        b = rng.integers(0, num_vertices, size=2 * need + 8, dtype=np.int64)
        keep = a != b
        keys = arc_keys(
            np.minimum(a[keep], b[keep]), np.maximum(a[keep], b[keep]),
            num_vertices,
        )
        keys = distinct(keys)
        absent = keys[~member(keys, live)]
        if picked:
            absent = absent[~member(absent, np.sort(np.concatenate(picked)))]
        picked.append(absent[: count - have])
        have += picked[-1].size
        if have >= count:
            break
    else:
        raise RuntimeError(
            f"could not draw {count} absent pairs over n={num_vertices}; "
            f"graph too dense for the requested insert volume"
        )
    return np.sort(np.concatenate(picked))
