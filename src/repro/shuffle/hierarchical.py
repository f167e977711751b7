"""Hierarchical global exchange: the paper's congestion mitigation (§V-F).

"Exchanging the samples randomly between workers leads to a personalized
all-to-all communication pattern which is sensitive to the network
congestion when scaling up.  An alternative solution is to use a
hierarchical global exchange scheme that maps to the hierarchy of
connection between computing nodes."

This module implements that alternative: instead of every worker sending
each sample directly to a random peer anywhere in the machine (flat
exchange, O(M^2) potential inter-node message pairs), workers

1. funnel their outgoing samples to their node leader (intra-node, cheap),
2. leaders run a balanced node-level exchange (inter-node message pairs
   drop from O(M^2) to O((M/R)^2) for R ranks per node, with R^2-fold
   larger messages — far friendlier to the network), and
3. leaders scatter the received samples evenly to their node's workers.

The node-level destination permutations come from the same shared-seed
construction as Algorithm 1, so the exchange stays balanced: every worker
still sends and receives exactly ``k`` samples.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

from repro.mpi.communicator import Communicator
from repro.utils.rng import SeedTree

__all__ = ["HierarchicalExchangeResult", "hierarchical_exchange"]


@dataclass
class HierarchicalExchangeResult:
    """Received items plus message-count accounting for the ablation bench."""

    received: list[Any]
    intra_node_messages: int
    inter_node_messages: int


def hierarchical_exchange(
    comm: Communicator,
    items: Sequence[Any],
    *,
    ranks_per_node: int,
    seed: int,
    epoch: int,
) -> HierarchicalExchangeResult:
    """Exchange ``items`` (this rank's outgoing samples) hierarchically.

    Every rank must pass the same number of items ``k``; every rank receives
    exactly ``k`` items back.  ``comm.size`` must be divisible by
    ``ranks_per_node``.
    """
    size, rank = comm.size, comm.rank
    if ranks_per_node < 1:
        raise ValueError(f"ranks_per_node must be >= 1, got {ranks_per_node}")
    if size % ranks_per_node != 0:
        raise ValueError(
            f"world size {size} not divisible by ranks_per_node {ranks_per_node}"
        )
    k = len(items)
    counts = comm.allgather(k)
    if len(set(counts)) != 1:
        raise ValueError(f"all ranks must exchange the same count, got {sorted(set(counts))}")

    n_nodes = size // ranks_per_node
    node = rank // ranks_per_node
    intra = comm.split(node, key=rank)
    leaders = comm.split(0 if intra.rank == 0 else 1, key=rank)
    is_leader = intra.rank == 0

    intra_msgs = 0
    inter_msgs = 0

    # Phase 1: funnel to the node leader.
    gathered = intra.gather(list(items), root=0)
    intra_msgs += max(0, intra.size - 1)

    received_at_leader: list[Any] = []
    if is_leader:
        pooled: list[Any] = [item for sub in gathered for item in sub]
        # Phase 2: balanced node-level exchange.  Node-level rounds use
        # shared-seed permutations of the nodes, mirroring Algorithm 1 one
        # level up the hierarchy.
        rounds = len(pooled)  # == ranks_per_node * k
        tree = SeedTree(seed)
        rng = tree.shared("hier-exchange", epoch)
        outboxes: list[list[Any]] = [[] for _ in range(n_nodes)]
        for i in range(rounds):
            perm = rng.permutation(n_nodes)
            outboxes[int(perm[node])].append(pooled[i])
        inbound = leaders.alltoall(outboxes)
        inter_msgs += sum(1 for box in outboxes if box)
        received_at_leader = [item for sub in inbound for item in sub]
        # Phase 3: deal received samples evenly back to node members.
        per_member = [received_at_leader[r::ranks_per_node] for r in range(ranks_per_node)]
        received = intra.scatter(per_member, root=0)
        intra_msgs += max(0, intra.size - 1)
    else:
        # Non-leaders participate in the leader split with a throwaway
        # communicator; they only take part in the intra-node phases.
        received = intra.scatter(None, root=0)

    if len(received) != k:
        raise AssertionError(
            f"balance violated: sent {k} items but received {len(received)}"
        )
    return HierarchicalExchangeResult(
        received=list(received),
        intra_node_messages=intra_msgs,
        inter_node_messages=inter_msgs,
    )
