"""Fluid flow-level network simulator with max-min fair sharing.

Flows are (src rank, dst rank, bytes) tuples routed over a
:class:`~repro.simnet.topology.Topology`.  At every instant each flow gets
its max-min fair rate (progressive filling); the simulator advances from
flow completion to flow completion.  This is the classic fluid
approximation used in network studies — no packets, but faithful
bandwidth-sharing behaviour — and is how we study the congestion of the
flat personalised all-to-all exchange versus the hierarchical alternative
(§V-F) without hand-waving a congestion factor.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .topology import Topology

__all__ = ["Flow", "FlowSimResult", "simulate_flows"]


@dataclass
class Flow:
    """One src->dst transfer of ``nbytes`` over the network."""
    src: int
    dst: int
    nbytes: float
    # Simulation state:
    remaining: float = field(init=False)
    finish_time: float | None = field(default=None, init=False)

    def __post_init__(self):
        if self.nbytes <= 0:
            raise ValueError(f"flow bytes must be positive, got {self.nbytes}")
        self.remaining = float(self.nbytes)


@dataclass(frozen=True)
class FlowSimResult:
    """Completion statistics of one traffic pattern."""

    makespan: float  # time until the last flow completes
    mean_fct: float  # mean flow completion time
    max_link_utilization: dict[tuple[str, str], float]


def _maxmin_rates(
    flows: list[Flow],
    paths: dict[int, list[tuple[str, str]]],
    capacities: dict[tuple[str, str], float],
) -> dict[int, float]:
    """Progressive filling: max-min fair rate per active flow index."""
    active = {i for i, f in enumerate(flows) if f.finish_time is None and f.remaining > 0}
    cap_left = dict(capacities)
    link_flows: dict[tuple[str, str], set[int]] = {}
    for i in active:
        for e in paths[i]:
            link_flows.setdefault(e, set()).add(i)
    rates: dict[int, float] = {}
    unassigned = set(active)
    while unassigned:
        # Bottleneck link: smallest equal share among links with unassigned flows.
        best_edge, best_share = None, None
        for e, members in link_flows.items():
            live = members & unassigned
            if not live:
                continue
            share = cap_left[e] / len(live)
            if best_share is None or share < best_share:
                best_edge, best_share = e, share
        if best_edge is None:
            break
        fixed = link_flows[best_edge] & unassigned
        for i in fixed:
            rates[i] = best_share
            for e in paths[i]:
                cap_left[e] -= best_share
            unassigned.discard(i)
    return rates


def simulate_flows(topology: Topology, flows: list[Flow]) -> FlowSimResult:
    """Run the fluid simulation to completion; returns timing statistics.

    Flows between a rank and itself are completed instantly (local copy).
    """
    if not flows:
        raise ValueError("no flows to simulate")
    # Normalise edges to a canonical direction for capacity bookkeeping.
    def canon(e):
        return e if e[0] <= e[1] else (e[1], e[0])

    paths: dict[int, list[tuple[str, str]]] = {}
    capacities: dict[tuple[str, str], float] = {}
    for i, f in enumerate(flows):
        if f.src == f.dst:
            f.finish_time = 0.0
            f.remaining = 0.0
            paths[i] = []
            continue
        edges = [canon(e) for e in topology.path(f.src, f.dst)]
        paths[i] = edges
        for e in edges:
            capacities.setdefault(e, topology.edge_bw(e))

    peak_util = {e: 0.0 for e in capacities}
    now = 0.0
    completion_times: list[float] = [0.0 for f in flows if f.finish_time == 0.0]
    while True:
        rates = _maxmin_rates(flows, paths, capacities)
        if not rates:
            break
        # Track peak utilisation per link.
        load: dict[tuple[str, str], float] = {}
        for i, r in rates.items():
            for e in paths[i]:
                load[e] = load.get(e, 0.0) + r
        for e, l in load.items():
            peak_util[e] = max(peak_util[e], l / capacities[e])
        # Advance to the earliest completion under current rates.
        dt = min(
            flows[i].remaining / r for i, r in rates.items() if r > 0
        )
        now += dt
        for i, r in rates.items():
            flows[i].remaining -= r * dt
            if flows[i].remaining <= 1e-9:
                flows[i].remaining = 0.0
                flows[i].finish_time = now
                completion_times.append(now)
    unfinished = [f for f in flows if f.finish_time is None]
    if unfinished:
        raise RuntimeError(f"{len(unfinished)} flows never completed (zero-rate deadlock?)")
    return FlowSimResult(
        makespan=now,
        mean_fct=sum(completion_times) / len(completion_times),
        max_link_utilization=peak_util,
    )
