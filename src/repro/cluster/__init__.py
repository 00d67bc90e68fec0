"""repro.cluster — sharded multi-tenant serving with SLOs and failover.

The "millions of users" leg of the roadmap: M resident tenant graphs
(:mod:`~repro.cluster.tenants`) served by N replicas behind a
weighted-fair deficit-round-robin router (:mod:`~repro.cluster.router`),
with per-tenant admission quotas, per-tenant SLO burn-rate monitoring,
typed shed/fail/failover surfaces, and bit-identical re-routing of a
down replica's in-flight batches (:mod:`~repro.cluster.service`).
Open-loop diurnal workloads drive it (:mod:`~repro.cluster.workload`).
"""

from .router import ClusterRouter, QueueFull
from .service import ClusterService, ReplicaDown
from .tenants import (
    SLO_CLASSES,
    Tenant,
    TenantRegistry,
    TenantSpec,
    build_registry,
    build_tenant,
    parse_tenant_spec,
)
from .workload import run_cluster_session, run_cluster_workload

__all__ = [
    "SLO_CLASSES",
    "ClusterRouter",
    "ClusterService",
    "QueueFull",
    "ReplicaDown",
    "Tenant",
    "TenantRegistry",
    "TenantSpec",
    "build_registry",
    "build_tenant",
    "parse_tenant_spec",
    "run_cluster_session",
    "run_cluster_workload",
]
