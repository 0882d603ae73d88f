"""Multilevel coarsening via heavy-edge matching.

The coarsening phase repeatedly contracts a maximal matching that prefers heavy
edges, producing a hierarchy of smaller graphs whose partitions can be
projected back to the original graph.  This is the same scheme METIS uses; the
interaction graphs CloudQC partitions are small enough (tens to hundreds of
qubits) that a straightforward Python implementation over flat per-node
lists (:class:`~repro.partition.flat.FlatGraph`) is fast.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple, Union

import networkx as nx
import numpy as np

from .flat import FlatGraph


@dataclass
class CoarseningLevel:
    """One level of the multilevel hierarchy."""

    graph: FlatGraph
    #: fine node position -> coarse node position in the *next* (smaller) level.
    projection: List[int]


def heavy_edge_matching(
    graph: Union[nx.Graph, FlatGraph], rng: np.random.Generator
) -> List[Tuple[int, int]]:
    """Greedy maximal matching preferring the heaviest incident edge.

    Nodes are visited in random order (randomisation decorrelates successive
    levels); each unmatched node is matched with its heaviest unmatched
    neighbour.  ``graph`` is a networkx graph or a :class:`FlatGraph`; the
    pairs are node positions.
    """
    graph = FlatGraph.of(graph)
    nodes = list(range(len(graph)))
    rng.shuffle(nodes)
    matched = [False] * len(nodes)
    matching: List[Tuple[int, int]] = []
    nbrs, wts = graph.nbrs, graph.wts
    for u in nodes:
        if matched[u]:
            continue
        best: Optional[int] = None
        best_weight = -1.0
        for v, weight in zip(nbrs[u], wts[u]):
            if matched[v] or v == u:
                continue
            if weight > best_weight:
                best_weight = weight
                best = v
        if best is not None:
            matched[u] = matched[best] = True
            matching.append((u, best))
    return matching


def contract(
    graph: Union[nx.Graph, FlatGraph], matching: List[Tuple[int, int]]
) -> CoarseningLevel:
    """Contract each matched pair into one coarse node, merging weights.

    Coarse nodes are numbered matched pairs first, then the unmatched nodes
    in order; each coarse adjacency list is in edge-creation order, the
    order networkx would give the same contraction.
    """
    graph = FlatGraph.of(graph)
    weight = graph.weight
    projection = [-1] * len(graph)
    coarse_weight: List[float] = []
    for a, b in matching:
        projection[a] = projection[b] = len(coarse_weight)
        coarse_weight.append(weight[a] + weight[b])
    for u, w in enumerate(weight):
        if projection[u] < 0:
            projection[u] = len(coarse_weight)
            coarse_weight.append(w)
    adjacency = [{} for _ in coarse_weight]
    for u, v, w in graph.edges():
        cu, cv = projection[u], projection[v]
        if cu == cv:
            continue
        row = adjacency[cu]
        if cv in row:
            row[cv] += w
            adjacency[cv][cu] += w
        else:
            row[cv] = w
            adjacency[cv][cu] = w
    coarse = FlatGraph(
        range(len(coarse_weight)),
        coarse_weight,
        [tuple(row) for row in adjacency],
        [tuple(row.values()) for row in adjacency],
    )
    return CoarseningLevel(graph=coarse, projection=projection)


def coarsen(
    graph: Union[nx.Graph, FlatGraph],
    target_size: int,
    seed: Optional[int] = None,
    max_levels: int = 30,
) -> List[CoarseningLevel]:
    """Build the coarsening hierarchy down to roughly ``target_size`` nodes.

    Returns the list of levels from finest to coarsest; each level's
    ``projection`` maps the previous graph's nodes onto its own.  The input
    graph itself is not included.  Coarsening stops early when a level shrinks
    the graph by less than 10% (a sign of a star-like structure).
    """
    current = FlatGraph.of(graph)
    target_size = max(target_size, 2)
    levels: List[CoarseningLevel] = []
    if len(current) <= target_size:
        return levels
    rng = np.random.default_rng(seed)
    for _ in range(max_levels):
        matching = heavy_edge_matching(current, rng)
        if not matching:
            break
        level = contract(current, matching)
        if len(level.graph) >= 0.9 * len(current):
            break
        levels.append(level)
        current = level.graph
        if len(current) <= target_size:
            break
    return levels
