"""Connected components as a min-label propagation program.

This is the contract's smallest nontrivial citizen — the ``docs/programs.md``
tutorial walks through writing exactly this class — and the only built-in
that leaves direction choice to the engine: min-label combines see the
same value set push or pull, so ``supports_pull = True`` lets each
component pick its §4.2 direction freely.
"""

from __future__ import annotations

import numpy as np

from repro.core.programs.base import VertexProgram

__all__ = ["ConnectedComponentsProgram"]


class ConnectedComponentsProgram(VertexProgram):
    """Min-label propagation: every vertex converges to the smallest
    vertex ID in its connected component."""

    name = "cc"
    supports_pull = True
    #: A label message carries the destination ID plus the 8-byte label.
    message_bytes = 16

    def _init_state(self) -> None:
        self.labels = np.arange(self.n, dtype=np.int64)

    def initial_frontier(self) -> np.ndarray:
        return np.ones(self.n, dtype=bool)

    def gather(self, src, dst):
        msg = self.labels[src]
        better = msg < self.labels[dst]
        if not np.any(better):
            return None
        return src[better], dst[better], msg[better]

    def apply(self, dst, val, src):
        improved = val < self.labels[dst]
        d = dst[improved]
        self.labels[d] = val[improved]
        return d

    def state_arrays(self):
        return {"labels": self.labels}

    def info(self):
        return {"num_components": int(np.unique(self.labels).size)}
