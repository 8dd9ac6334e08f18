"""Topology specifications and instantiation into networks."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.net.network import Network
from repro.net.packet import NodeId
from repro.sim.scheduler import EventScheduler
from repro.sim.trace import Trace


@dataclass
class TopologySpec:
    """A topology as pure data: node count plus an undirected edge list.

    ``metadata`` carries generator-specific annotations (e.g. which node is
    the star hub, which nodes are routers vs. workstations).
    """

    name: str
    num_nodes: int
    edges: List[Tuple[NodeId, NodeId]]
    metadata: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        seen = set()
        for a, b in self.edges:
            if a == b:
                raise ValueError(f"self-loop at {a} in topology {self.name}")
            if not (0 <= a < self.num_nodes and 0 <= b < self.num_nodes):
                raise ValueError(
                    f"edge ({a}, {b}) outside node range in {self.name}")
            key = (min(a, b), max(a, b))
            if key in seen:
                raise ValueError(f"duplicate edge {key} in {self.name}")
            seen.add(key)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def is_tree(self) -> bool:
        return self.num_edges == self.num_nodes - 1

    def degree(self, node: NodeId) -> int:
        return sum(1 for a, b in self.edges if node in (a, b))

    def build(self, scheduler: Optional[EventScheduler] = None,
              trace: Optional[Trace] = None, delivery: str = "direct",
              delay: float = 1.0, threshold: int = 1) -> Network:
        """Instantiate the spec into a simulated network.

        All links share the given delay and TTL threshold; callers needing
        heterogeneous links can adjust ``network.links`` afterwards.
        """
        network = Network(scheduler=scheduler, trace=trace, delivery=delivery)
        for node_id in range(self.num_nodes):
            network.add_node(node_id)
        for a, b in self.edges:
            network.add_link(a, b, delay=delay, threshold=threshold)
        return network
