"""Fault injection, checkpointing, and recovery for simulated BFS runs.

See ``docs/resilience.md`` for the fault-spec grammar, the checkpoint
format, and the recovery policies.
"""

from repro.resilience.checkpoint import (
    CHECKPOINT_SCHEMA,
    Checkpoint,
    CheckpointError,
    LevelCheckpointer,
)
from repro.resilience.faults import (
    NULL_FAULTS,
    Fault,
    FaultInjector,
    FaultPlan,
    FaultSpecError,
    NullFaultInjector,
    RankCrashError,
    RetryBackoff,
    parse_fault_spec,
)
from repro.resilience.recovery import (
    PartialCoverage,
    RecoveryError,
    RecoveryPolicy,
    ResilientRunResult,
    build_resilience,
    recover,
    run_program_with_recovery,
    run_with_recovery,
    validate_partial,
)

__all__ = [
    "CHECKPOINT_SCHEMA",
    "Checkpoint",
    "CheckpointError",
    "Fault",
    "FaultInjector",
    "FaultPlan",
    "FaultSpecError",
    "LevelCheckpointer",
    "NULL_FAULTS",
    "NullFaultInjector",
    "PartialCoverage",
    "RankCrashError",
    "RecoveryError",
    "RecoveryPolicy",
    "ResilientRunResult",
    "RetryBackoff",
    "build_resilience",
    "parse_fault_spec",
    "recover",
    "run_program_with_recovery",
    "run_with_recovery",
    "validate_partial",
]
