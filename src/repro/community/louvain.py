"""Louvain community detection (Blondel et al.) for weighted graphs.

A self-contained implementation of the two-phase Louvain heuristic: local
moving of nodes between communities to greedily maximise modularity, followed
by community aggregation, repeated until modularity stops improving.  The
local-moving phase is the hot loop of CloudQC's placement-attempt pipeline
(it runs for every community-detection cache miss), so every level is a
:class:`~repro.partition.FlatGraph` of per-node lists; it is written to stay
bit-identical to the reference networkx formulation, RNG call sequence
included.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional, Set, Union

import networkx as nx
import numpy as np

from ..partition.flat import FlatGraph
from .modularity import modularity


def louvain_graph(graph: nx.Graph) -> FlatGraph:
    """Louvain's first level for ``graph``: its edges re-added with float weights.

    It does not depend on the seed, so a caller that runs Louvain on one graph
    under many seeds can build it once and pass it to
    :func:`louvain_communities` instead of the graph.
    """
    normalised = nx.Graph()
    normalised.add_nodes_from(graph.nodes())
    for a, b, data in graph.edges(data=True):
        normalised.add_edge(a, b, weight=float(data.get("weight", 1.0)))
    return FlatGraph.of(normalised)


def louvain_communities(
    graph: Union[nx.Graph, FlatGraph],
    seed: Optional[int] = None,
    resolution: float = 1.0,
    max_levels: int = 10,
) -> List[Set[Hashable]]:
    """Detect communities with the Louvain method.

    ``graph`` is a networkx graph or its :func:`louvain_graph`.  Returns a
    list of disjoint node sets covering the graph, ordered by decreasing
    size.  ``resolution`` > 1 favours smaller communities.
    """
    working = graph if isinstance(graph, FlatGraph) else louvain_graph(graph)
    if not len(working):
        return []
    rng = np.random.default_rng(seed)
    # membership maps original node -> its node position in the working level.
    membership: Dict[Hashable, int] = {
        node: position for position, node in enumerate(working.labels)
    }

    for _ in range(max_levels):
        local = _local_moving(working, rng, resolution)
        if len(set(local)) == len(working):
            break  # no merge happened at this level
        membership = {node: local[membership[node]] for node in membership}
        working = _aggregate(working, local)
        if len(working) <= 1:
            break

    groups: Dict[int, Set[Hashable]] = {}
    for node, community in membership.items():
        groups.setdefault(community, set()).add(node)
    return sorted(groups.values(), key=len, reverse=True)


def _local_moving(
    graph: FlatGraph, rng: np.random.Generator, resolution: float
) -> List[int]:
    """Phase 1: move nodes between communities while modularity improves.

    Returns each node's dense community id.  Neighbours are visited in
    adjacency order, per-community weights accumulate in first-seen order,
    the modularity-gain expressions keep their operation order, and each
    sweep shuffles a length-n list, so seeded community structure is exactly
    that of the networkx formulation.
    """
    # networkx's total edge weight and weighted degree (self-loops twice),
    # summed in its iteration order.
    m = sum(w for _, _, w in graph.edges())
    n = len(graph)
    if m == 0:
        return list(range(n))
    nbrs, wts = graph.nbrs, graph.wts
    degree = [
        float(total + (u in row and weights[row.index(u)]))
        for u, (total, row, weights) in enumerate(zip(graph.degree, nbrs, wts))
    ]
    community = list(range(n))
    community_degree = list(degree)
    two_m = 2.0 * m

    improved = True
    iterations = 0
    while improved and iterations < 50:
        improved = False
        iterations += 1
        order = list(range(n))
        rng.shuffle(order)
        for u in order:
            current = community[u]
            deg_u = degree[u]
            # Weight from node to each neighbouring community, first seen first.
            links: Dict[int, float] = {}
            for v, w in zip(nbrs[u], wts[u]):
                if v == u:
                    continue
                c = community[v]
                links[c] = links.get(c, 0.0) + w
            # Remove node from its community.
            community_degree[current] -= deg_u
            weight_to_current = links.get(current, 0.0)
            best_community = current
            best_gain = 0.0
            for candidate, weight in links.items():
                gain = weight - resolution * community_degree[
                    candidate
                ] * deg_u / two_m
                baseline = weight_to_current - resolution * (
                    community_degree[current] * deg_u / two_m
                )
                if gain - baseline > best_gain + 1e-12:
                    best_gain = gain - baseline
                    best_community = candidate
            community[u] = best_community
            community_degree[best_community] += deg_u
            if best_community != current:
                improved = True
    # Relabel community ids to be dense.
    # detlint: ignore[DET003] community ids are distinct ints; sorted() output is canonical regardless of set order
    relabel = {c: i for i, c in enumerate(sorted(set(community)))}
    return [relabel[c] for c in community]


def _aggregate(graph: FlatGraph, community: List[int]) -> FlatGraph:
    """Phase 2: collapse communities into super-nodes.

    Intra-community weight is preserved as a self-loop on the super-node, so
    the next level's modularity gains account for already-merged structure
    (dropping it makes Louvain over-merge into one giant community).  Edges
    are merged in networkx's edge order and each super-node's adjacency is in
    edge-creation order, as ``nx.Graph.add_edge`` would build it.
    """
    adjacency: List[Dict[int, float]] = [{} for _ in range(max(community) + 1)]
    for u, v, w in graph.edges():
        cu, cv = community[u], community[v]
        links = adjacency[cu]
        links[cv] = links[cv] + w if cv in links else w
        if cv != cu:
            adjacency[cv][cu] = links[cv]
    return FlatGraph(
        range(len(adjacency)),
        [1.0] * len(adjacency),
        [tuple(links) for links in adjacency],
        [tuple(links.values()) for links in adjacency],
    )


def best_partition(
    graph: nx.Graph, seed: Optional[int] = None, resolution: float = 1.0
) -> Dict[Hashable, int]:
    """Louvain partition as a node -> community-id mapping."""
    communities = louvain_communities(graph, seed=seed, resolution=resolution)
    assignment: Dict[Hashable, int] = {}
    for index, community in enumerate(communities):
        for node in community:
            assignment[node] = index
    return assignment


def louvain_modularity(graph: nx.Graph, seed: Optional[int] = None) -> float:
    """Modularity of the Louvain partition (convenience for tests/ablations)."""
    return modularity(graph, louvain_communities(graph, seed=seed))
