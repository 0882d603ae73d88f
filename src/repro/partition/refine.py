"""Boundary refinement of a k-way partition (greedy Kernighan-Lin / FM style).

Given an assignment, repeatedly move boundary nodes to the adjacent part that
yields the largest edge-cut gain without violating the balance constraint.
Moves with zero gain are allowed occasionally to escape plateaus, bounded by a
pass limit so refinement always terminates.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional, Sequence, Union

import networkx as nx
import numpy as np

from .flat import FlatGraph


def _part_weights(graph: FlatGraph, parts: Sequence[int], num_parts: int) -> List[float]:
    weights = [0.0] * num_parts
    for part, weight in zip(parts, graph.weight):
        weights[part] += weight
    return weights


def refine(
    graph: Union[nx.Graph, FlatGraph],
    assignment: Dict[Hashable, int],
    num_parts: int,
    max_part_weight: float,
    max_passes: int = 8,
    seed: Optional[int] = None,
) -> Dict[Hashable, int]:
    """Greedy boundary refinement; returns a new (improved) assignment."""
    graph = FlatGraph.of(graph)
    index = graph.index()
    parts = [assignment[label] for label in graph.labels]
    refine_parts(graph, parts, num_parts, max_part_weight, max_passes, seed)
    return {label: parts[index[label]] for label in assignment}


def refine_parts(
    graph: FlatGraph,
    parts: List[int],
    num_parts: int,
    max_part_weight: float,
    max_passes: int = 8,
    seed: Optional[int] = None,
) -> None:
    """:func:`refine` on node positions; updates ``parts`` in place."""
    rng = np.random.default_rng(seed)
    weights = _part_weights(graph, parts, num_parts)
    node_weights, nbrs, wts = graph.weight, graph.nbrs, graph.wts

    for _ in range(max_passes):
        improved = False
        nodes = list(range(len(parts)))
        rng.shuffle(nodes)
        for u in nodes:
            current = parts[u]
            # Candidate parts are those of the node's neighbours (boundary moves).
            candidates = {parts[v] for v in nbrs[u]} - {current}
            if not candidates:
                continue
            node_weight = node_weights[u]
            # Edge-cut gain of a move = weight to the target part minus weight
            # kept inside the current one, each summed in adjacency order.
            internal = 0.0
            external: Dict[int, float] = {}
            for v, weight in zip(nbrs[u], wts[u]):
                part = parts[v]
                if part == current:
                    internal += weight
                else:
                    external[part] = external.get(part, 0.0) + weight
            best_part = None
            best_gain = 0.0
            for part in candidates:
                if weights[part] + node_weight > max_part_weight:
                    continue
                gain = external[part] - internal
                if gain > best_gain:
                    best_gain = gain
                    best_part = part
            if best_part is not None:
                parts[u] = best_part
                weights[current] -= node_weight
                weights[best_part] += node_weight
                improved = True
        if not improved:
            break


def rebalance(
    graph: Union[nx.Graph, FlatGraph],
    assignment: Dict[Hashable, int],
    num_parts: int,
    max_part_weight: float,
) -> Dict[Hashable, int]:
    """Force the partition under the balance constraint.

    Overweight parts shed their least-connected nodes to the lightest part
    with room.  Used after projection when coarse node weights make a part
    overshoot the limit.
    """
    graph = FlatGraph.of(graph)
    index = graph.index()
    parts = [assignment[label] for label in graph.labels]
    order = [index[label] for label in assignment]
    rebalance_parts(graph, parts, order, num_parts, max_part_weight)
    return {label: parts[index[label]] for label in assignment}


def rebalance_parts(
    graph: FlatGraph,
    parts: List[int],
    order: Sequence[int],
    num_parts: int,
    max_part_weight: float,
) -> None:
    """:func:`rebalance` on node positions; updates ``parts`` in place.

    ``order`` is the assignment's node order: among equally connected
    members of an overweight part, the first in ``order`` moves.
    """
    weights = _part_weights(graph, parts, num_parts)
    nbrs, wts = graph.nbrs, graph.wts
    for part in sorted(range(num_parts), key=weights.__getitem__, reverse=True):
        while weights[part] > max_part_weight:
            members = [u for u in order if parts[u] == part]
            if len(members) <= 1:
                break
            # Pick the member with the least internal connectivity.
            def internal_weight(u: int) -> float:
                return sum(
                    weight for v, weight in zip(nbrs[u], wts[u]) if parts[v] == part
                )

            node = min(members, key=internal_weight)
            node_weight = graph.weight[node]
            destinations = sorted(
                (w, p) for p, w in enumerate(weights) if p != part
            )
            for _, destination in destinations:
                if weights[destination] + node_weight <= max_part_weight:
                    parts[node] = destination
                    weights[part] -= node_weight
                    weights[destination] += node_weight
                    break
            else:
                break
