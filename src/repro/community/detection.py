"""QPU community selection for CloudQC's placement stage (Sec. V-B).

Given the cloud's resource graph (topology annotated with availability), find a
set of QPUs that is densely connected *and* has enough free computing qubits to
host a partitioned circuit.  Dense connectivity keeps remote gates short-range;
preferring already-identified communities leaves compact free regions for
future jobs.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

import networkx as nx

from .greedy import greedy_modularity_communities
from .louvain import louvain_communities


class CommunityError(RuntimeError):
    """Raised when no QPU set with sufficient resources exists."""


def detect_communities(
    graph: nx.Graph, method: str = "louvain", seed: Optional[int] = None
) -> List[Set[Hashable]]:
    """Detect communities of ``graph`` with the chosen engine."""
    if method == "louvain":
        return louvain_communities(graph, seed=seed)
    if method == "greedy":
        return greedy_modularity_communities(graph)
    raise ValueError(f"unknown community detection method {method!r}")


def graph_center(graph: nx.Graph, nodes: Optional[Sequence[Hashable]] = None) -> Hashable:
    """Node minimising the longest hop distance to all others (Algorithm 2).

    When ``nodes`` is given, the centre is computed on that induced subgraph;
    disconnected subgraphs fall back to the largest component.
    """
    subgraph = graph if nodes is None else graph.subgraph(nodes)
    return adjacency_center(subgraph.adj)


def adjacency_center(adjacency: Mapping[Hashable, Iterable[Hashable]]) -> Hashable:
    """:func:`graph_center` of a graph given as a node -> neighbours mapping.

    Ties in component size go to the first component in node order, as with
    ``max(nx.connected_components(...), key=len)``; ties in eccentricity to
    the smallest ``str(node)``.  Eccentricities come from one plain
    breadth-first search per node: the graphs here (QPU candidate sets,
    quotient graphs of a partition) have a handful of nodes, where networkx's
    per-call dispatch costs more than the search.
    """
    if not adjacency:
        raise ValueError("cannot compute the center of an empty graph")
    largest: List[Hashable] = []
    reached: Set[Hashable] = set()
    for source in adjacency:
        if source not in reached:
            component, _ = _breadth_first(adjacency, source)
            reached.update(component)
            if len(component) > len(largest):
                largest = component
    eccentricity = {node: _breadth_first(adjacency, node)[1] for node in largest}
    return min(eccentricity, key=lambda node: (eccentricity[node], str(node)))


def _breadth_first(
    adjacency: Mapping[Hashable, Iterable[Hashable]], source: Hashable
) -> Tuple[List[Hashable], int]:
    """The nodes reachable from ``source`` and its eccentricity among them."""
    seen = {source}
    order = [source]
    frontier = [source]
    depth = -1
    while frontier:
        depth += 1
        level = []
        for node in frontier:
            for neighbor in adjacency[node]:
                if neighbor not in seen:
                    seen.add(neighbor)
                    level.append(neighbor)
        order.extend(level)
        frontier = level
    return order, depth


def community_capacity(resource_graph: nx.Graph, community: Set[Hashable]) -> int:
    """Total available computing qubits inside a community."""
    return int(
        sum(resource_graph.nodes[node].get("available", 0) for node in community)
    )


def _community_score(
    resource_graph: nx.Graph, community: Set[Hashable], required_qubits: int
) -> float:
    """Rank communities: prefer tight fits with strong internal connectivity.

    A community that barely fits the job wastes fewer qubits (objective 2 of
    the placement formulation); internal edge weight rewards short network
    distances between the selected QPUs.
    """
    capacity = community_capacity(resource_graph, community)
    if capacity < required_qubits:
        return float("-inf")
    internal_weight = sum(
        float(d.get("weight", 1.0))
        for _, _, d in resource_graph.subgraph(community).edges(data=True)
    )
    slack = capacity - required_qubits
    return internal_weight / (1.0 + slack)


def expand_community(
    resource_graph: nx.Graph,
    community: Set[Hashable],
    required_qubits: int,
) -> Set[Hashable]:
    """Grow a community by adjacent QPUs until it can hold ``required_qubits``."""
    selected = set(community)
    while community_capacity(resource_graph, selected) < required_qubits:
        frontier: Dict[Hashable, float] = {}
        for node in selected:
            for neighbor, data in resource_graph[node].items():
                if neighbor in selected:
                    continue
                frontier[neighbor] = frontier.get(neighbor, 0.0) + float(
                    data.get("weight", 1.0)
                )
        if not frontier:
            raise CommunityError(
                f"cannot expand community to {required_qubits} qubits: "
                f"only {community_capacity(resource_graph, selected)} reachable"
            )
        # Prefer the neighbour with the strongest attachment, then most capacity.
        best = max(
            frontier,
            key=lambda n: (
                frontier[n],
                resource_graph.nodes[n].get("available", 0),
            ),
        )
        selected.add(best)
    return selected


def select_qpu_community(
    resource_graph: nx.Graph,
    required_qubits: int,
    min_qpus: int = 1,
    method: str = "louvain",
    seed: Optional[int] = None,
    communities: Optional[List[Set[Hashable]]] = None,
) -> List[Hashable]:
    """Pick the QPU set that will host a partitioned circuit.

    The detected communities are scored by fit and connectivity; the best one
    that can hold ``required_qubits`` (expanding over the topology when none is
    large enough) is returned, constrained to contain at least ``min_qpus``
    QPUs with free capacity.

    ``communities`` short-circuits the detection step with a precomputed
    result for the same ``(resource_graph, method, seed)`` triple -- the hook
    :class:`repro.placement.PlacementContext` uses to run community detection
    once per cloud resource version instead of once per placement candidate.
    """
    if required_qubits <= 0:
        raise ValueError("required_qubits must be positive")
    total_available = community_capacity(resource_graph, set(resource_graph.nodes()))
    if total_available < required_qubits:
        raise CommunityError(
            f"cloud has only {total_available} free qubits, need {required_qubits}"
        )

    if communities is None:
        communities = detect_communities(resource_graph, method=method, seed=seed)
    scored = sorted(
        communities,
        key=lambda c: _community_score(resource_graph, c, required_qubits),
        reverse=True,
    )
    best: Optional[Set[Hashable]] = None
    for community in scored:
        if community_capacity(resource_graph, community) >= required_qubits:
            best = set(community)
            break
    if best is None:
        # No single community is big enough: expand the best-connected one.
        seed_community = max(
            communities,
            key=lambda c: community_capacity(resource_graph, c),
        )
        best = expand_community(resource_graph, set(seed_community), required_qubits)

    # Guarantee a minimum number of usable QPUs for the requested partition count.
    usable = [n for n in best if resource_graph.nodes[n].get("available", 0) > 0]
    while len(usable) < min_qpus:
        grown = expand_community(
            resource_graph, best, community_capacity(resource_graph, best) + 1
        )
        if grown == best:
            break
        best = grown
        usable = [n for n in best if resource_graph.nodes[n].get("available", 0) > 0]

    return sorted(best)
