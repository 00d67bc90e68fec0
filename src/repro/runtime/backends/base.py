"""The execution seam: :class:`ExecutionBackend` and its in-process default.

The scheduler routes its three kernel call sites (``execute``,
``execute_program``, ``execute_lanes``) through one backend object.
:class:`SimulatedBackend` — the only backend the program ships —
delegates to the kernel's own methods.  The seam stays so a test or a
bench can substitute its own: ``benchmarks/layers/seams.py`` times a
kernel's body and commit halves separately through it.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

__all__ = ["ExecutionBackend", "SimulatedBackend"]


class ExecutionBackend(ABC):
    """Executes one kernel sub-iteration on behalf of the scheduler."""

    @abstractmethod
    def execute(self, kernel, direction, active, visited, ledger, record):
        """Run one BFS sub-iteration; same contract as
        :meth:`~repro.core.kernels.base.ComponentKernel.execute`."""

    @abstractmethod
    def execute_program(self, kernel, program, direction, active, ledger, record):
        """Run one vertex-program sub-iteration; same contract as
        :meth:`~repro.core.kernels.base.ComponentKernel.execute_program`."""

    @abstractmethod
    def execute_lanes(self, kernel, direction, group_lanes, lanes, ledger, record):
        """Run one batched-wave sub-iteration; same contract as
        :meth:`~repro.core.kernels.base.ComponentKernel.execute_lanes`."""


class SimulatedBackend(ExecutionBackend):
    """Pure delegation to the kernel's own ``execute*`` methods."""

    def execute(self, kernel, direction, active, visited, ledger, record):
        return kernel.execute(direction, active, visited, ledger, record)

    def execute_program(self, kernel, program, direction, active, ledger, record):
        return kernel.execute_program(program, direction, active, ledger, record)

    def execute_lanes(self, kernel, direction, group_lanes, lanes, ledger, record):
        return kernel.execute_lanes(direction, group_lanes, lanes, ledger, record)
