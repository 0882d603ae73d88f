"""Partition-to-QPU mapping heuristic (Algorithm 2, "Find Placement").

Given a circuit partition, the quotient interaction graph between parts, and a
selected QPU community, anchor the most central part on the community's graph
center and expand outwards: every remaining part is mapped to the free QPU
closest (in hop distance, weighted by interaction strength) to the QPUs of its
already-mapped neighbouring parts.  Parts with heavy mutual communication
therefore land on nearby QPUs.
"""

from __future__ import annotations

from collections import deque
from typing import (
    TYPE_CHECKING,
    Dict,
    Hashable,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
)

import networkx as nx

from ..cloud import QuantumCloud
from ..community import adjacency_center, graph_center

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .context import PlacementContext


#: A quotient graph as part -> {neighbouring part: crossing-gate weight}.
Links = Dict[Hashable, Dict[Hashable, float]]


class MappingError(RuntimeError):
    """Raised when the parts cannot be fitted on the candidate QPUs."""


def _part_order(links: Links, center_part: Hashable) -> List[Hashable]:
    """BFS order over the quotient graph from the centre, heaviest edges first."""
    order: List[Hashable] = []
    visited = {center_part}
    queue = deque([center_part])
    while queue:
        part = queue.popleft()
        order.append(part)
        neighbors = sorted(links[part].items(), key=lambda item: -item[1])
        for neighbor, _ in neighbors:
            if neighbor not in visited:
                visited.add(neighbor)
                queue.append(neighbor)
    # Parts disconnected from the centre (no cross edges) come last, by part label.
    # detlint: ignore[DET003] part labels are distinct ints; sorted() output is canonical regardless of set order
    for part in sorted(set(links) - visited):
        order.append(part)
    return order


def map_partitions_to_qpus(
    part_sizes: Mapping[Hashable, int],
    quotient: nx.Graph,
    cloud: QuantumCloud,
    candidate_qpus: Sequence[int],
    allow_sharing: bool = True,
    context: Optional["PlacementContext"] = None,
) -> Dict[Hashable, int]:
    """Map every part to a QPU drawn (preferentially) from ``candidate_qpus``.

    Parameters
    ----------
    part_sizes:
        Number of computing qubits each part needs.
    quotient:
        Inter-part interaction graph (edge weight = crossing two-qubit gates).
    cloud:
        The quantum cloud; availability is read live so multi-tenant placements
        account for qubits already held by other jobs.
    candidate_qpus:
        QPUs selected by community detection (or BFS); other QPUs are used only
        if the candidates run out of capacity.
    allow_sharing:
        Whether two parts may share one QPU when capacity allows.  Algorithm 2
        prefers distinct QPUs (sharing would merge the parts), so shared QPUs
        are only used as a fallback.
    context:
        Optional :class:`~repro.placement.PlacementContext`; memoizes the
        candidate set's topology center (a pure function of the static
        topology, and a hot call on the attempt pipeline).
    """
    parts = list(part_sizes)
    if not parts:
        return {}
    qpu_ids = cloud.qpu_ids
    candidates = [q for q in candidate_qpus if q in cloud.qpus]
    if not candidates:
        candidates = qpu_ids

    available: Dict[int, int] = {
        qpu_id: cloud.qpu(qpu_id).computing_available for qpu_id in qpu_ids
    }

    if context is not None:
        community_center = context.topology_center(cloud, candidates)
    else:
        community_center = graph_center(cloud.topology.graph, candidates)
    # The quotient graph as part -> {neighbouring part: weight}, in networkx's
    # adjacency order: the part order and the QPU picks below read it many
    # times, and plain dicts are much cheaper to read than networkx views.
    links: Links = {
        part: {neighbor: float(data.get("weight", 1.0)) for neighbor, data in nbrs.items()}
        for part, nbrs in quotient.adjacency()
    }
    if any(links.values()):  # at least one edge
        center_part = adjacency_center(links)
    else:
        center_part = max(parts, key=lambda p: part_sizes[p])

    order = _part_order(links, center_part) if links else list(parts)
    # Parts not present in the quotient graph (fully local, no cross edges).
    for part in parts:
        if part not in order:
            order.append(part)

    mapping: Dict[Hashable, int] = {}
    used: set = set()

    for part in order:
        if part not in part_sizes:
            continue
        size = part_sizes[part]
        target = _pick_qpu(
            part,
            size,
            mapping,
            links,
            cloud,
            candidates,
            qpu_ids,
            available,
            used,
            community_center,
            allow_sharing,
        )
        if target is None:
            raise MappingError(
                f"no QPU can host part {part!r} needing {size} qubits"
            )
        mapping[part] = target
        available[target] -= size
        used.add(target)
    return mapping


def _pick_qpu(
    part: Hashable,
    size: int,
    mapping: Mapping[Hashable, int],
    links: Links,
    cloud: QuantumCloud,
    candidates: Sequence[int],
    qpu_ids: Sequence[int],
    available: Mapping[int, int],
    used: Iterable[int],
    community_center: int,
    allow_sharing: bool,
) -> Optional[int]:
    used = set(used)
    distance = cloud.distance
    # (weight, QPU) of the already-mapped neighbouring parts, in adjacency order.
    mapped = [
        (weight, mapping[neighbor])
        for neighbor, weight in links.get(part, {}).items()
        if neighbor in mapping
    ]

    def attraction(qpu_id: int) -> float:
        """Weighted distance to the QPUs of already-mapped neighbouring parts."""
        total = 0.0
        for weight, neighbor_qpu in mapped:
            total += weight * distance(qpu_id, neighbor_qpu)
        return total

    def rank(qpu_id: int) -> tuple:
        return (
            attraction(qpu_id),
            distance(qpu_id, community_center),
            -available[qpu_id],
            qpu_id,
        )

    pools: List[List[int]] = [
        [q for q in candidates if q not in used and available[q] >= size],
    ]
    if allow_sharing:
        pools.append([q for q in candidates if q in used and available[q] >= size])
    pools.append([q for q in qpu_ids if q not in used and available[q] >= size])
    if allow_sharing:
        pools.append([q for q in qpu_ids if available[q] >= size])

    for pool in pools:
        if pool:
            return min(pool, key=rank)
    return None


def expand_parts_to_qubits(
    part_assignment: Mapping[int, Hashable],
    part_to_qpu: Mapping[Hashable, int],
) -> Dict[int, int]:
    """Compose qubit -> part and part -> QPU into the final qubit -> QPU mapping."""
    missing = {part for part in part_assignment.values() if part not in part_to_qpu}
    if missing:
        raise MappingError(f"parts {sorted(map(str, missing))} were never mapped to a QPU")
    return {qubit: part_to_qpu[part] for qubit, part in part_assignment.items()}
