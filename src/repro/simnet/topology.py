"""Cluster network topologies for the flow-level simulator.

A two-level tree abstracts both evaluation systems well enough for the
exchange-pattern studies: ranks attach to their node switch through an
injection link, node switches attach to a core through an uplink.  The
personalised all-to-all of Algorithm 1 stresses the uplinks — which is why
the paper observes congestion sensitivity at scale and suggests the
hierarchical exchange (§V-F).
"""

from __future__ import annotations

from dataclasses import dataclass

import networkx as nx

__all__ = ["Topology", "two_level_tree", "torus_2d"]


@dataclass
class Topology:
    """A capacitated network: ``graph`` holds ``bw`` (bytes/s) per edge."""

    graph: nx.Graph
    ranks: list[str]
    ranks_per_node: int

    def path(self, src: int, dst: int) -> list[tuple[str, str]]:
        """Edge list of the (unique, shortest) route between two ranks."""
        nodes = nx.shortest_path(self.graph, self.ranks[src], self.ranks[dst])
        return list(zip(nodes[:-1], nodes[1:]))

    def edge_bw(self, edge: tuple[str, str]) -> float:
        """Configured bandwidth of an edge (bytes/s)."""
        return self.graph.edges[edge]["bw"]

    @property
    def size(self) -> int:
        """Total number of elements."""
        return len(self.ranks)


def two_level_tree(
    n_nodes: int,
    ranks_per_node: int,
    *,
    injection_bw: float,
    uplink_bw: float,
) -> Topology:
    """Build ranks -> node-switch -> core with the given link capacities.

    ``uplink_bw`` below ``ranks_per_node * injection_bw`` creates the
    oversubscription that makes flat all-to-all exchanges congest.
    """
    if n_nodes < 1 or ranks_per_node < 1:
        raise ValueError("n_nodes and ranks_per_node must be >= 1")
    if injection_bw <= 0 or uplink_bw <= 0:
        raise ValueError("bandwidths must be positive")
    g = nx.Graph()
    g.add_node("core")
    ranks: list[str] = []
    for n in range(n_nodes):
        switch = f"sw{n}"
        g.add_edge(switch, "core", bw=uplink_bw)
        for r in range(ranks_per_node):
            rank = f"r{n * ranks_per_node + r}"
            g.add_edge(rank, switch, bw=injection_bw)
            ranks.append(rank)
    return Topology(graph=g, ranks=ranks, ranks_per_node=ranks_per_node)


def torus_2d(
    rows: int,
    cols: int,
    ranks_per_node: int,
    *,
    injection_bw: float,
    link_bw: float,
) -> Topology:
    """2-D torus of node switches (the Fugaku/TofuD interconnect family).

    Each grid position is a node switch with wrap-around mesh links to its
    four neighbours; ranks attach through injection links.  Unlike the tree,
    inter-node flows take multi-hop shortest paths, so distant exchanges
    consume bandwidth on every traversed link — the locality effect a
    hierarchical (or topology-aware) exchange can exploit.
    """
    if rows < 1 or cols < 1 or ranks_per_node < 1:
        raise ValueError("rows, cols and ranks_per_node must be >= 1")
    if injection_bw <= 0 or link_bw <= 0:
        raise ValueError("bandwidths must be positive")
    g = nx.Graph()
    ranks: list[str] = []
    for r in range(rows):
        for c in range(cols):
            switch = f"sw{r}_{c}"
            g.add_node(switch)
            node_id = r * cols + c
            for k in range(ranks_per_node):
                rank = f"r{node_id * ranks_per_node + k}"
                g.add_edge(rank, switch, bw=injection_bw)
                ranks.append(rank)
    # Wrap-around mesh links (deduplicated for 1-wide dimensions).
    for r in range(rows):
        for c in range(cols):
            here = f"sw{r}_{c}"
            right = f"sw{r}_{(c + 1) % cols}"
            down = f"sw{(r + 1) % rows}_{c}"
            if right != here:
                g.add_edge(here, right, bw=link_bw)
            if down != here:
                g.add_edge(here, down, bw=link_bw)
    return Topology(graph=g, ranks=ranks, ranks_per_node=ranks_per_node)
