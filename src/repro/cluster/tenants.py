"""Tenants: resident graphs with their own caches, quotas, and SLOs.

A *tenant* is one resident graph behind the cluster serving plane: its
own partition, its own engine, its own
:class:`~repro.serve.cache.ResultCache` and graph fingerprint, its own
admission quota and fair-share weight, and (optionally) its own
:class:`~repro.dynamic.repair.IncrementalGraph` for streaming ingest.
Tenants never share lanes: an MSBFS batch is packed from exactly one
tenant's queue, so a lane word always refers to one graph.

Service classes bundle the per-tenant serving policy.  The defaults —
``gold`` / ``silver`` / ``bronze`` — trade admission quota and
scheduler weight against latency objectives:

=========  ======  =====  ==========================================
class      weight  quota  default SLO
=========  ======  =====  ==========================================
gold       4       96     99% of totals under 250 ms
silver     2       64     99% of totals under 500 ms
bronze     1       32     95% of totals under 1 s
=========  ======  =====  ==========================================

The :class:`TenantRegistry` holds the resident set and is the single
source of truth the router and replicas read tenants from.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.core.setup import build_setup
from repro.obs.slo import SLOSpec
from repro.serve.bench import serving_engine
from repro.serve.cache import ResultCache
from repro.serve.core import ResidentGraph

__all__ = [
    "MAX_TENANTS",
    "SLO_CLASSES",
    "TenantSpec",
    "Tenant",
    "TenantRegistry",
    "parse_tenant_count",
    "parse_tenant_spec",
    "build_registry",
]

#: Service classes: scheduler weight, admission quota, latency SLOs.
SLO_CLASSES: dict[str, dict] = {
    "gold": dict(
        weight=4,
        quota=96,
        slos=(SLOSpec(stage="total", threshold_seconds=0.25, objective=0.99),),
    ),
    "silver": dict(
        weight=2,
        quota=64,
        slos=(SLOSpec(stage="total", threshold_seconds=0.5, objective=0.99),),
    ),
    "bronze": dict(
        weight=1,
        quota=32,
        slos=(SLOSpec(stage="total", threshold_seconds=1.0, objective=0.95),),
    ),
}

#: Class assigned to tenants that don't name one.
DEFAULT_CLASS = "silver"


@dataclass(frozen=True)
class TenantSpec:
    """Declarative description of one tenant."""

    tenant_id: str
    #: Graph500 SCALE of the tenant's resident R-MAT graph.
    scale: int = 9
    rows: int = 2
    cols: int = 2
    #: Graph generation seed (different seeds -> different graphs).
    seed: int = 1
    #: Service class key into :data:`SLO_CLASSES`.
    slo_class: str = DEFAULT_CLASS
    #: Deficit-round-robin weight (None -> the class default).
    weight: int | None = None
    #: Admission quota: max queued requests before typed shedding
    #: (None -> the class default).
    quota: int | None = None
    #: Latency objectives (None -> the class defaults).
    slos: tuple | None = None
    e_threshold: int | None = None
    h_threshold: int | None = None

    def __post_init__(self) -> None:
        if not self.tenant_id:
            raise ValueError("tenant_id must be non-empty")
        if self.slo_class not in SLO_CLASSES:
            raise ValueError(
                f"unknown SLO class {self.slo_class!r} "
                f"(known: {', '.join(sorted(SLO_CLASSES))})"
            )
        if self.weight is not None and self.weight < 1:
            raise ValueError("weight must be >= 1")
        if self.quota is not None and self.quota < 1:
            raise ValueError("quota must be >= 1")

    @property
    def resolved_weight(self) -> int:
        if self.weight is not None:
            return int(self.weight)
        return int(SLO_CLASSES[self.slo_class]["weight"])

    @property
    def resolved_quota(self) -> int:
        if self.quota is not None:
            return int(self.quota)
        return int(SLO_CLASSES[self.slo_class]["quota"])

    @property
    def resolved_slos(self) -> tuple:
        if self.slos is not None:
            return tuple(self.slos)
        return tuple(SLO_CLASSES[self.slo_class]["slos"])


class Tenant(ResidentGraph):
    """One resident graph, its serving state, and its :class:`TenantSpec`.

    ``batched`` is the one engine replicas run query batches, programs
    and single roots on; its partition's fingerprint keys both the cache
    and result attribution.  ``sequential=`` is accepted and ignored,
    only because the layer bench (``benchmarks/layers/serving.py``)
    still passes it.
    """

    def __init__(
        self,
        spec: TenantSpec,
        sequential=None,
        batched=None,
        cache: ResultCache | None = None,
        fingerprint: str = "",
        dynamic=None,
    ) -> None:
        super().__init__(
            batched,
            cache=cache,
            fingerprint=fingerprint,
            dynamic=dynamic,
        )
        self.spec = spec

    @property
    def tenant_id(self) -> str:
        return self.spec.tenant_id

    @property
    def degrees(self):
        return self.batched.part.degrees


class TenantRegistry:
    """The resident tenant set, iteration-ordered by registration."""

    def __init__(self, tenants=()) -> None:
        self._tenants: dict[str, Tenant] = {}
        for tenant in tenants:
            self.add(tenant)

    def add(self, tenant: Tenant) -> Tenant:
        if tenant.tenant_id in self._tenants:
            raise ValueError(f"duplicate tenant id {tenant.tenant_id!r}")
        self._tenants[tenant.tenant_id] = tenant
        return tenant

    def __len__(self) -> int:
        return len(self._tenants)

    def __iter__(self):
        return iter(self._tenants.values())

    def __contains__(self, tenant_id: str) -> bool:
        return tenant_id in self._tenants

    def __getitem__(self, tenant_id: str) -> Tenant:
        tenant = self._tenants.get(tenant_id)
        if tenant is None:
            known = ", ".join(self._tenants) or "<none>"
            raise KeyError(
                f"unknown tenant {tenant_id!r} (resident: {known})"
            )
        return tenant

    @property
    def tenant_ids(self) -> list[str]:
        return list(self._tenants)

    def degrees_map(self) -> dict:
        """Tenant id -> degree vector (the diurnal generator's input)."""
        return {tid: t.degrees for tid, t in self._tenants.items()}


# ----------------------------------------------------------------------
# construction
# ----------------------------------------------------------------------


def build_tenant(spec: TenantSpec, *, dynamic: bool = False) -> Tenant:
    """Build one tenant's engine and cache from its spec.

    ``dynamic=True`` additionally wraps the tenant's edge set in an
    :class:`~repro.dynamic.repair.IncrementalGraph` so update batches
    can be ingested while the tenant serves.
    """
    setup = build_setup(
        spec.scale, spec.rows, spec.cols, seed=spec.seed, weak_scaled=False,
        e_threshold=spec.e_threshold, h_threshold=spec.h_threshold,
    )
    tenant = Tenant(
        spec=spec,
        batched=serving_engine(setup),
        cache=ResultCache(),
    )
    if dynamic:
        tenant.dynamic = setup.incremental()
    return tenant


def build_registry(specs, *, dynamic: bool = False) -> TenantRegistry:
    """Build a registry of tenants from an iterable of specs."""
    return TenantRegistry(build_tenant(spec, dynamic=dynamic) for spec in specs)


# ----------------------------------------------------------------------
# CLI spec grammar
# ----------------------------------------------------------------------


#: Most tenants one ``--tenants`` spec may name.  Every tenant builds its
#: own graph and engine, so a resident set far past this never
#: finishes building — and the CLI parses the spec at argument time, so
#: an unbounded count would build that many specs before anything runs.
MAX_TENANTS = 1024


def parse_tenant_count(value: str) -> int:
    """Parse a bare ``--tenants N`` count (``1 <= N <= MAX_TENANTS``)."""
    try:
        count = int(value)
    except ValueError as exc:
        raise ValueError(
            f"tenants must be a count or name:class list, got {value!r}"
        ) from exc
    if not 1 <= count <= MAX_TENANTS:
        raise ValueError(
            f"tenant count must be in [1, {MAX_TENANTS}], got {count}"
        )
    return count


def parse_tenant_spec(value: str, *, scale: int = 9, rows: int = 2,
                      cols: int = 2, seed: int = 1) -> list[TenantSpec]:
    """Parse the CLI ``--tenants`` grammar into specs.

    Either a bare count (``3`` — tenants ``t0..tN-1`` cycling through
    gold/silver/bronze) or a comma list of ``name:class`` pairs
    (``search:gold,feed:silver,batch:bronze``).  Each tenant's graph is
    seeded ``seed + index`` so resident graphs differ.
    """
    value = value.strip()
    if not value:
        raise ValueError("tenants spec must be non-empty")
    classes = list(SLO_CLASSES)
    base = TenantSpec(
        tenant_id="_", scale=scale, rows=rows, cols=cols, seed=seed
    )
    is_count = True
    try:
        int(value)
    except ValueError:
        is_count = False
    if is_count:
        # Numeric input is always the count form — "0" must fail as an
        # invalid count, not sneak through as a tenant named "0".
        count = parse_tenant_count(value)
        return [
            replace(
                base,
                tenant_id=f"t{i}",
                seed=seed + i,
                slo_class=classes[i % len(classes)],
            )
            for i in range(count)
        ]
    tokens = value.split(",")
    if len(tokens) > MAX_TENANTS:
        raise ValueError(
            f"at most {MAX_TENANTS} tenants, got {len(tokens)} entries"
        )
    specs = []
    for i, token in enumerate(tokens):
        token = token.strip()
        if not token:
            raise ValueError(f"empty tenant entry in {value!r}")
        name, sep, cls = token.partition(":")
        if not name:
            raise ValueError(f"tenant entry {token!r} has an empty name")
        cls = cls.strip() if sep else DEFAULT_CLASS
        if cls not in SLO_CLASSES:
            raise ValueError(
                f"unknown SLO class {cls!r} in {token!r} "
                f"(known: {', '.join(sorted(SLO_CLASSES))})"
            )
        specs.append(
            replace(base, tenant_id=name.strip(), seed=seed + i, slo_class=cls)
        )
    if len({s.tenant_id for s in specs}) != len(specs):
        raise ValueError(f"duplicate tenant names in {value!r}")
    return specs
