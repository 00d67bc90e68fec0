"""Sub-iteration direction selection (paper §4.2).

Each of the six components chooses push (top-down) or pull (bottom-up)
independently every iteration:

- **cross-node components** (H2L, L2H, L2L): the choice compares the active
  fraction of the *source* class with the unvisited fraction of the
  *destination* class — "the ratios directly reflect the number of messages
  required to communicate".  Pull wins when fewer destinations remain
  unvisited than sources are active.
- **node-local components** (EH2EH, E2L, L2E): early exit makes the pull
  workload hard to predict from the destination side, so "only the source
  active ratio is used": pull once the source class's frontier is dense.

Crucially the ratios are evaluated against the *latest* visited state —
each sub-iteration sees the activations of earlier sub-iterations in the
same iteration, which is what lets L2E/L2H flip to pull right after a dense
EH2EH sub-iteration.

The whole-iteration baseline (ablation Fig. 15 "Baseline") instead picks
one direction for everything using Beamer's frontier-arcs heuristic.
"""

from __future__ import annotations

import numpy as np

from repro.core.config import BFSConfig
from repro.core.partition import COMPONENT_CLASSES, NODE_LOCAL_COMPONENTS

__all__ = [
    "ClassState",
    "choose_component_direction",
    "choose_whole_iteration_direction",
    "pull_wins",
]


class ClassState:
    """Active / unvisited populations per degree class, kept fresh
    between sub-iterations."""

    def __init__(self, class_masks: dict[str, np.ndarray]) -> None:
        self._masks = class_masks
        self.sizes = {k: int(m.sum()) for k, m in class_masks.items()}

    def measure(
        self, active: np.ndarray, visited: np.ndarray
    ) -> dict[str, tuple[float, float]]:
        """(active_ratio, unvisited_ratio) per class under current state,
        from boolean masks — the stateless definition of the ratios."""
        out = {}
        for name, mask in self._masks.items():
            size = self.sizes[name]
            if size == 0:
                out[name] = (0.0, 0.0)
                continue
            out[name] = (
                float(np.count_nonzero(active & mask)) / size,
                float(np.count_nonzero(~visited & mask)) / size,
            )
        return out


def pull_wins(component: str, active_src, unvisited_dst, config: BFSConfig):
    """The §4.2 rule: does ``component`` pull, given its source class's
    active ratio and its destination class's unvisited ratio?

    A wave asks it once per live lane with that lane's floats, so every
    lane decides exactly as its single-source run would.
    """
    if component in NODE_LOCAL_COMPONENTS:
        return active_src > config.local_pull_threshold
    # Cross-node: fewer messages wins.  Push messages scale with the
    # active sources' arcs, pull messages with the hit destinations, so
    # pull breaks even while unvisited_dst is still a multiple of
    # active_src (the cross_pull_bias).
    return unvisited_dst < active_src * config.cross_pull_bias


def choose_component_direction(
    component: str,
    ratios: dict[str, tuple[float, float]],
    config: BFSConfig,
) -> str:
    """Direction for one component given fresh class ratios.

    ``ratios[class] = (active_ratio, unvisited_ratio)``.
    """
    src_class, dst_class = COMPONENT_CLASSES[component]
    active_src, _ = ratios[src_class]
    _, unvisited_dst = ratios[dst_class]
    return "pull" if pull_wins(component, active_src, unvisited_dst, config) else "push"


def choose_whole_iteration_direction(
    active: np.ndarray,
    visited: np.ndarray,
    degrees: np.ndarray,
    config: BFSConfig,
) -> str:
    """One direction for the whole iteration (vanilla Beamer heuristic).

    Pull when the frontier's outgoing arcs exceed the unexplored arcs
    divided by alpha.
    """
    frontier_arcs = float(degrees[active].sum())
    unexplored_arcs = float(degrees[~visited].sum())
    if unexplored_arcs <= 0:
        return "push"
    return (
        "pull"
        if frontier_arcs > unexplored_arcs / config.whole_iteration_alpha
        else "push"
    )
