"""The execution seam between the scheduler and its kernels.

See :mod:`repro.runtime.backends.base`.
"""

from repro.runtime.backends.base import ExecutionBackend, SimulatedBackend

__all__ = ["ExecutionBackend", "SimulatedBackend"]
