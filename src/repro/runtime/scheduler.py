"""Root-transaction placement.

Section 2: "the available transactions need only be distributed across
the available processors to balance the computational load.  This can
easily be done within a DSM system."  Placement is round-robin, which
keeps every run deterministic.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.util.errors import ConfigurationError
from repro.util.ids import NodeId


class Scheduler:
    """Chooses the node at which each root transaction executes."""

    def __init__(self, nodes: Sequence[NodeId]):
        if not nodes:
            raise ConfigurationError("scheduler needs at least one node")
        self.nodes: List[NodeId] = list(nodes)
        self._next = 0

    def pick_node(self) -> NodeId:
        node = self.nodes[self._next % len(self.nodes)]
        self._next += 1
        return node
