"""Entanglement routing helpers: path costs between QPUs.

CloudQC's placement uses the shortest-path hop count as the communication cost
``C_ij``; this module adds the path-enumeration utilities the network layer and
the ablation benchmarks use (alternative cost definitions, bottleneck width of
a path in terms of communication qubits).
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Tuple

import networkx as nx

from ..cloud import CloudTopology, QuantumCloud


def shortest_path(topology: CloudTopology, qpu_a: int, qpu_b: int) -> List[int]:
    """Shortest QPU path between two QPUs (inclusive of both endpoints)."""
    return topology.shortest_path(qpu_a, qpu_b)


def path_cost(topology: CloudTopology, qpu_a: int, qpu_b: int) -> int:
    """Hop-count cost (the paper's C_ij)."""
    return topology.distance(qpu_a, qpu_b)


def all_pairs_cost(topology: CloudTopology) -> Dict[Tuple[int, int], int]:
    """C_ij for every ordered QPU pair."""
    costs: Dict[Tuple[int, int], int] = {}
    for a in topology.qpu_ids:
        for b in topology.qpu_ids:
            costs[(a, b)] = topology.distance(a, b)
    return costs


def expected_cost(
    topology: CloudTopology, qpu_a: int, qpu_b: int, success_probability: float
) -> float:
    """Alternative C_ij: expected EPR attempts along the path.

    Each hop independently needs ``1 / p`` attempts in expectation, so the
    expected total is ``hops / p``.  Used by the cost-model ablation.
    """
    if not 0.0 < success_probability <= 1.0:
        raise ValueError("success probability must lie in (0, 1]")
    return topology.distance(qpu_a, qpu_b) / success_probability


def bottleneck_communication_capacity(
    cloud: QuantumCloud, qpu_a: int, qpu_b: int
) -> int:
    """Minimum communication-qubit capacity along the shortest path.

    The narrowest QPU on the path limits how many entanglement-swapping
    attempts can run concurrently end to end.  Path nodes outside the fleet
    (drained or failed QPUs) are pure relays, as in the EPR model: they keep
    swapping entanglement and do not narrow the path.
    """
    path = cloud.topology.shortest_path(qpu_a, qpu_b)
    return min(
        cloud.qpu(qpu).communication_capacity
        for qpu in path
        if qpu in cloud.qpus or qpu in (qpu_a, qpu_b)
    )


def widest_path_capacity(cloud: QuantumCloud, qpu_a: int, qpu_b: int) -> int:
    """Maximum over all paths of the bottleneck communication capacity.

    Computed with a maximum-bottleneck (widest path) search over the QPU graph
    where node capacity acts as the width.  Used to study whether routing
    around narrow QPUs would help (future-work ablation).  Topology nodes
    outside the fleet are relays of unbounded width, as in
    :func:`bottleneck_communication_capacity`.
    """
    if qpu_a == qpu_b:
        return cloud.qpu(qpu_a).communication_capacity
    graph = cloud.topology.graph
    # Binary search over capacities: keep only nodes with capacity >= threshold.
    # detlint: ignore[DET003] capacities are distinct ints; sorted() output is canonical regardless of set order
    capacities = sorted(
        {cloud.qpu(qpu).communication_capacity for qpu in cloud.qpu_ids}
    )
    best = 0
    for threshold in capacities:
        keep = [
            qpu
            for qpu in cloud.topology.qpu_ids
            if qpu not in cloud.qpus
            or cloud.qpu(qpu).communication_capacity >= threshold
            or qpu in (qpu_a, qpu_b)
        ]
        subgraph = graph.subgraph(keep)
        if qpu_a in subgraph and qpu_b in subgraph and nx.has_path(
            subgraph, qpu_a, qpu_b
        ):
            best = threshold
    return best
