"""Multilevel k-way graph partitioning with a tunable imbalance factor.

``partition_graph(graph, num_parts, imbalance)`` is the METIS-replacement entry
point CloudQC's circuit-placement stage calls (Algorithm 1 line 8).  It
implements the classic multilevel scheme:

1. *Coarsen* the graph by heavy-edge matching until it is small.
2. Compute an *initial partition* of the coarse graph by greedy region growing
   from spread-out seeds.
3. *Uncoarsen*: project the partition back level by level, running greedy
   boundary refinement at every level.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional, Tuple, Union

import networkx as nx

from .coarsen import CoarseningLevel, coarsen
from .flat import FlatGraph
from .metrics import edge_cut, part_weights
from .refine import rebalance_parts, refine_parts


class PartitionError(ValueError):
    """Raised when the requested partition is infeasible."""


def _spread_seeds(graph: FlatGraph, num_parts: int) -> List[int]:
    """Pick ``num_parts`` seeds that are pairwise far apart (k-center greedy).

    Every seed is at distance 0 from the seed set and every other node at
    distance >= 1, so the farthest node is never a seed already.
    """
    n = len(graph)
    if n <= num_parts:
        return list(range(n))
    degree = graph.degree
    # Start from the highest-degree-weight node so dense regions get a seed.
    seeds = [max(range(n), key=degree.__getitem__)]
    distance = graph.distance_row(seeds[0])
    while len(seeds) < num_parts:
        candidate = max(range(n), key=lambda u: (distance[u], degree[u]))
        seeds.append(candidate)
        distance = list(map(min, distance, graph.distance_row(candidate)))
    return seeds


def _initial_partition(
    graph: FlatGraph, num_parts: int, max_part_weight: float
) -> Tuple[List[int], List[int]]:
    """Greedy region growing from spread-out seeds, respecting balance.

    Returns ``(parts, order)``: each node's part, and the order in which
    nodes were assigned.
    """
    node_weights, nbrs, wts = graph.weight, graph.nbrs, graph.wts
    parts = [-1] * len(graph)
    order: List[int] = []
    weights = [0.0] * num_parts
    seeds = _spread_seeds(graph, num_parts)
    unassigned = set(range(len(graph))) - set(seeds)
    # Each part's growth candidates: unassigned neighbours of its region, with
    # the edge weight attaching them, in first-seen order.  Kept up to date as
    # nodes join regions, which gives the same sums and order as rescanning
    # the whole region every round.
    attached: List[Dict[int, float]] = [{} for _ in range(num_parts)]

    def assign(u: int, part: int) -> None:
        parts[u] = part
        order.append(u)
        weights[part] += node_weights[u]
        unassigned.discard(u)
        for candidates in attached:
            candidates.pop(u, None)
        candidates = attached[part]
        for v, weight in zip(nbrs[u], wts[u]):
            if v in unassigned:
                candidates[v] = candidates.get(v, 0.0) + weight

    for part, seed in enumerate(seeds):
        assign(seed, part)

    progress = True
    while unassigned and progress:
        progress = False
        # Grow the lightest part first so parts stay balanced.
        for part in sorted(range(num_parts), key=weights.__getitem__):
            # The most strongly attached candidate that fits (first seen wins
            # a tie).
            picked = None
            for u, weight in attached[part].items():
                if weights[part] + node_weights[u] <= max_part_weight and (
                    picked is None or weight > best
                ):
                    picked, best = u, weight
            if picked is None:
                continue
            assign(picked, part)
            progress = True

    # Disconnected or capacity-stranded leftovers go to the lightest feasible part.
    for u in sorted(unassigned, key=lambda u: -node_weights[u]):
        feasible = min(
            (
                (w, p)
                for p, w in enumerate(weights)
                if w + node_weights[u] <= max_part_weight
            ),
            default=None,
        )
        part = feasible[1] if feasible else min(range(num_parts), key=weights.__getitem__)
        parts[u] = part
        order.append(u)
        weights[part] += node_weights[u]
    return parts, order


def partition_graph(
    graph: Union[nx.Graph, FlatGraph],
    num_parts: int,
    imbalance: float = 0.05,
    seed: Optional[int] = None,
    coarsen_target: int = 60,
) -> Dict[Hashable, int]:
    """Partition ``graph`` into ``num_parts`` parts minimising the edge cut.

    Parameters
    ----------
    graph:
        Weighted undirected graph, as networkx or as a :class:`FlatGraph`
        (callers that partition one graph many times pass its flat form once
        built, so its arrays and distance rows are reused); node weight
        attribute ``weight`` defaults to 1, edge weight attribute ``weight``
        defaults to 1.
    num_parts:
        Number of parts (k).  ``k = 1`` returns the trivial partition.
    imbalance:
        Allowed relative imbalance ε: every part's weight is at most
        ``(1 + ε) * total / k`` (plus the weight of a single node, since a
        node is never split).
    seed:
        Randomisation seed for reproducible partitions.

    Returns
    -------
    dict mapping every node to its part id in ``range(num_parts)``.  Ties are
    broken by node position, never by label, so relabelling the graph only
    relabels the result.
    """
    if num_parts < 1:
        raise PartitionError("num_parts must be at least 1")
    if imbalance < 0:
        raise PartitionError("imbalance factor cannot be negative")
    flat = FlatGraph.of(graph)
    labels = flat.labels
    if not len(flat):
        return {}
    if num_parts == 1:
        return {label: 0 for label in labels}
    if num_parts > len(flat):
        raise PartitionError(
            f"cannot split {len(flat)} nodes into {num_parts} non-empty parts"
        )

    total = sum(flat.weight)
    max_part_weight = (1.0 + imbalance) * total / num_parts
    # A part must always be able to hold at least one node.
    max_part_weight = max(max_part_weight, max(flat.weight))

    # Coarsen, keeping the part-weight cap fixed (weights are preserved).
    levels: List[CoarseningLevel] = coarsen(
        flat, target_size=max(coarsen_target, 4 * num_parts), seed=seed
    )
    coarsest = levels[-1].graph if levels else flat

    parts, order = _initial_partition(coarsest, num_parts, max_part_weight)
    refine_parts(coarsest, parts, num_parts, max_part_weight, seed=seed)

    # Uncoarsen: project through the hierarchy, refining at each level.
    hierarchy = [flat] + [level.graph for level in levels]
    for level_index in range(len(levels) - 1, -1, -1):
        finer = hierarchy[level_index]
        parts = [parts[coarse] for coarse in levels[level_index].projection]
        order = range(len(finer))
        rebalance_parts(finer, parts, order, num_parts, max_part_weight)
        refine_parts(finer, parts, num_parts, max_part_weight, seed=seed)

    rebalance_parts(flat, parts, order, num_parts, max_part_weight)
    return {labels[u]: parts[u] for u in order}


def partition_cost(graph: nx.Graph, assignment: Dict[Hashable, int]) -> float:
    """Edge cut of an assignment (convenience wrapper)."""
    return edge_cut(graph, assignment)


def partition_sizes(
    graph: nx.Graph, assignment: Dict[Hashable, int], num_parts: int
) -> Dict[int, float]:
    """Per-part node weight (convenience wrapper)."""
    return part_weights(graph, assignment, num_parts)
