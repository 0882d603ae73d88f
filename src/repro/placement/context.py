"""Version-keyed memoization for repeated CloudQC placement attempts.

On a busy cloud the streaming simulator re-runs placement for the same pending
job many times, and every ``CloudQCPlacement.place`` call explores a grid of
``(imbalance, num_parts)`` candidates.  From one attempt to the next almost
every input is unchanged: the circuit-side artifacts (interaction graph, its
networkx form, partitions, quotient graphs) never change at all, and the
cloud-side artifacts (resource graph, detected communities, selected QPU sets)
only change when a job is admitted or released.

:class:`PlacementContext` memoizes both sides:

* **circuit identity** keys the interaction graph, its networkx form, its
  flat form (:class:`~repro.partition.FlatGraph`, which also keeps the hop
  distance rows the partitioner's seed spreading asks for) and the gate
  table placement scoring reads, and
  ``(circuit, num_parts, imbalance, seed)`` keys partition assignments and
  quotient graphs.  Circuits are treated as frozen while registered with a
  context (the simulator never mutates a submitted circuit).
* **cloud resource version** (:attr:`repro.cloud.QuantumCloud.resource_version`)
  keys Louvain's seed-free first level, community detection and QPU-set
  selection: equal versions imply an identical availability map, so the
  cached result is exactly what a fresh computation would produce.  Any
  ``admit``/``release`` bumps the version and naturally invalidates every
  cloud-side entry.

Determinism: results are cached only under concrete integer seeds (seeded
pipelines are pure functions of their cache key); ``seed=None`` requests draw
fresh entropy and are never cached.  Warm-cache placements are therefore
bit-identical to cold-cache placements -- regression tests pin this.

Cached objects are returned without copying on the hot path; callers must
treat cached graphs/assignments as read-only (the placement pipeline does).
"""

from __future__ import annotations

from typing import Any, Dict, Hashable, List, Optional, Set, Tuple

import networkx as nx

from ..circuits import InteractionGraph, QuantumCircuit
from ..cloud import QuantumCloud
from ..community import (
    detect_communities,
    graph_center,
    louvain_graph,
    select_qpu_community,
)
from ..partition import FlatGraph, partition_graph
from .scoring import GateTable, gate_table


class PlacementContext:
    """Memoizes the circuit-side and cloud-side inputs of placement attempts.

    One context is meant to live for one simulation run (or one experiment
    over a fixed set of circuits); it holds strong references to the circuits
    and clouds it has seen so the identity-based keys stay valid.
    """

    #: Per-cache entry bound.  Streaming runs mint a fresh seed per attempt,
    #: so seed-keyed caches would otherwise grow without bound; when a cache
    #: fills up, its oldest half is dropped (insertion order).  Pruning only
    #: ever costs recomputation -- results are unaffected.
    max_entries: int = 4096

    def __init__(self, max_entries: Optional[int] = None) -> None:
        if max_entries is not None:
            self.max_entries = max_entries
        # Circuit-side caches, keyed by circuit identity.
        self._circuits: Dict[int, QuantumCircuit] = {}
        self._interactions: Dict[int, InteractionGraph] = {}
        self._interaction_nx: Dict[int, nx.Graph] = {}
        self._interaction_flat: Dict[int, FlatGraph] = {}
        self._gate_tables: Dict[int, GateTable] = {}
        self._partitions: Dict[Tuple[int, int, float, int], Dict[int, int]] = {}
        self._quotients: Dict[Tuple[int, int, float, int], nx.Graph] = {}
        # Cloud-side caches, keyed by (cloud identity, resource version, ...).
        self._clouds: Dict[int, QuantumCloud] = {}
        self._louvain_graphs: Dict[Tuple[int, int], FlatGraph] = {}
        self._communities: Dict[Tuple[int, int, str, int], List[Set[Hashable]]] = {}
        self._qpu_sets: Dict[Tuple[Any, ...], Tuple[int, ...]] = {}
        # Topology-keyed cache (the topology never mutates, so no version).
        self._topology_centers: Dict[Tuple[int, frozenset], int] = {}
        # Hit/miss accounting for the hot-path benchmark report.
        self.hits = 0
        self.misses = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of memo lookups served from cache (0.0 when unused)."""
        return self.hits / self.lookups if self.lookups else 0.0

    def stats(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "interaction_graphs": len(self._interactions),
            "partitions": len(self._partitions),
            "communities": len(self._communities),
            "qpu_sets": len(self._qpu_sets),
        }

    def _store(self, cache: Dict, key: Any, value: Any) -> None:
        """Insert, evicting the oldest half of the cache when it is full."""
        if len(cache) >= self.max_entries:
            for stale in list(cache)[: max(1, len(cache) // 2)]:
                del cache[stale]
        cache[key] = value

    # ------------------------------------------------------------------
    # Circuit-side memoization
    # ------------------------------------------------------------------
    def _circuit_key(self, circuit: QuantumCircuit) -> int:
        key = id(circuit)
        self._circuits.setdefault(key, circuit)
        return key

    def interaction(self, circuit: QuantumCircuit) -> InteractionGraph:
        """The circuit's interaction graph, built once per circuit."""
        key = self._circuit_key(circuit)
        cached = self._interactions.get(key)
        if cached is not None:
            self.hits += 1
            return cached
        self.misses += 1
        graph = InteractionGraph.from_circuit(circuit)
        self._interactions[key] = graph
        return graph

    def interaction_nx(self, circuit: QuantumCircuit) -> nx.Graph:
        """The networkx form of the interaction graph (read-only, shared)."""
        key = self._circuit_key(circuit)
        cached = self._interaction_nx.get(key)
        if cached is not None:
            self.hits += 1
            return cached
        self.misses += 1
        graph = self.interaction(circuit).to_networkx()
        self._interaction_nx[key] = graph
        return graph

    def interaction_flat(self, circuit: QuantumCircuit) -> FlatGraph:
        """The partitioner's flat form of the interaction graph (read-only, shared).

        Its distance rows fill in as partitions ask for them, so every later
        partition of the circuit reuses them.  Only the flat form is kept;
        the networkx graph it is read from is not.
        """
        key = self._circuit_key(circuit)
        cached = self._interaction_flat.get(key)
        if cached is not None:
            self.hits += 1
            return cached
        self.misses += 1
        graph = FlatGraph.of(self.interaction(circuit).to_networkx())
        self._store(self._interaction_flat, key, graph)
        return graph

    def gate_table(self, circuit: QuantumCircuit) -> GateTable:
        """The circuit's gate operands and kinds, as placement scoring reads them."""
        key = self._circuit_key(circuit)
        cached = self._gate_tables.get(key)
        if cached is not None:
            self.hits += 1
            return cached
        self.misses += 1
        table = gate_table(circuit)
        self._store(self._gate_tables, key, table)
        return table

    def partition(
        self,
        circuit: QuantumCircuit,
        num_parts: int,
        imbalance: float,
        seed: Optional[int],
    ) -> Dict[int, int]:
        """Memoized ``partition_graph`` over the circuit's interaction graph.

        Unseeded requests (``seed=None``) draw fresh entropy per call and are
        never cached, matching the uncached pipeline's sampling behavior.
        """
        if seed is None:
            return partition_graph(
                self.interaction_flat(circuit), num_parts, imbalance=imbalance, seed=None
            )
        key = (self._circuit_key(circuit), num_parts, float(imbalance), seed)
        cached = self._partitions.get(key)
        if cached is not None:
            self.hits += 1
            return cached
        self.misses += 1
        assignment = partition_graph(
            self.interaction_flat(circuit), num_parts, imbalance=imbalance, seed=seed
        )
        self._store(self._partitions, key, assignment)
        return assignment

    def quotient(
        self,
        circuit: QuantumCircuit,
        assignment: Dict[int, int],
        num_parts: int,
        imbalance: float,
        seed: Optional[int],
    ) -> nx.Graph:
        """Quotient graph of a cached partition (same key as the partition).

        The cache is consulted only when ``assignment`` *is* the object cached
        by :meth:`partition` under the same key -- an externally supplied or
        post-processed assignment always gets a fresh, uncached quotient, so
        the key can never alias a different partition's quotient.
        """
        key = (self._circuit_key(circuit), num_parts, float(imbalance), seed)
        if seed is None or self._partitions.get(key) is not assignment:
            return self.interaction(circuit).quotient_graph(assignment)
        cached = self._quotients.get(key)
        if cached is not None:
            self.hits += 1
            return cached
        self.misses += 1
        quotient = self.interaction(circuit).quotient_graph(assignment)
        self._store(self._quotients, key, quotient)
        return quotient

    # ------------------------------------------------------------------
    # Cloud-side memoization (invalidated by resource_version bumps)
    # ------------------------------------------------------------------
    def _cloud_key(self, cloud: QuantumCloud) -> int:
        key = id(cloud)
        self._clouds.setdefault(key, cloud)
        return key

    def communities(
        self, cloud: QuantumCloud, method: str, seed: int
    ) -> List[Set[Hashable]]:
        """Detected communities of the cloud's resource graph.

        Keyed by ``(cloud, resource_version, method, seed)``: community
        detection is a pure function of the resource graph and the seed, and
        the resource graph is a pure function of the resource version.
        """
        key = (self._cloud_key(cloud), cloud.resource_version, method, seed)
        cached = self._communities.get(key)
        if cached is not None:
            self.hits += 1
            return cached
        self.misses += 1
        graph = (
            self.louvain_graph(cloud)
            if method == "louvain"
            else cloud.resource_graph()
        )
        communities = detect_communities(graph, method=method, seed=seed)
        self._store(self._communities, key, communities)
        return communities

    def louvain_graph(self, cloud: QuantumCloud) -> FlatGraph:
        """Louvain's first level for the cloud's resource graph.

        It does not depend on the seed, so streaming runs -- which mint a
        fresh seed per attempt -- build it once per resource version instead
        of once per community detection.
        """
        key = (self._cloud_key(cloud), cloud.resource_version)
        cached = self._louvain_graphs.get(key)
        if cached is not None:
            self.hits += 1
            return cached
        self.misses += 1
        graph = louvain_graph(cloud.resource_graph())
        self._store(self._louvain_graphs, key, graph)
        return graph

    def community_qpu_set(
        self,
        cloud: QuantumCloud,
        required_qubits: int,
        min_qpus: int,
        method: str,
        seed: Optional[int],
    ) -> List[int]:
        """Memoized community-based QPU selection.

        Keyed by ``(cloud, resource_version, required_qubits, min_qpus,
        method, seed)`` as specified by the fast-path design; raising
        selections (``CommunityError``) are not cached -- they re-raise
        identically on recomputation anyway.
        """
        if seed is None:
            return self._select(cloud, required_qubits, min_qpus, method, None)
        key = (
            "community",
            self._cloud_key(cloud),
            cloud.resource_version,
            required_qubits,
            min_qpus,
            method,
            seed,
        )
        cached = self._qpu_sets.get(key)
        if cached is not None:
            self.hits += 1
            return list(cached)
        self.misses += 1
        selection = self._select(cloud, required_qubits, min_qpus, method, seed)
        self._store(self._qpu_sets, key, tuple(selection))
        return selection

    def _select(
        self,
        cloud: QuantumCloud,
        required_qubits: int,
        min_qpus: int,
        method: str,
        seed: Optional[int],
    ) -> List[int]:
        communities = None
        if seed is not None:
            communities = self.communities(cloud, method, seed)
        return [
            int(qpu)
            for qpu in select_qpu_community(
                cloud.resource_graph(),
                required_qubits,
                min_qpus=min_qpus,
                method=method,
                seed=seed,
                communities=communities,
            )
        ]

    def topology_center(self, cloud: QuantumCloud, candidates) -> int:
        """Memoized ``graph_center`` of a candidate QPU set on the topology.

        The topology never changes, so the center is a pure function of the
        candidate set -- no resource version in the key.  Algorithm 2 asks for
        it on every (imbalance, num_parts) candidate, making it one of the
        hottest calls of the attempt pipeline.
        """
        key = (self._cloud_key(cloud), frozenset(candidates))
        cached = self._topology_centers.get(key)
        if cached is not None:
            self.hits += 1
            return cached
        self.misses += 1
        center = int(graph_center(cloud.topology.graph, list(candidates)))
        self._store(self._topology_centers, key, center)
        return center

    def bfs_qpu_set(
        self, cloud: QuantumCloud, required_qubits: int, min_qpus: int
    ) -> List[int]:
        """Memoized BFS QPU selection (seedless, so the version alone keys it)."""
        from .qpu_selection import bfs_qpu_set  # local import: avoids a cycle

        key = (
            "bfs",
            self._cloud_key(cloud),
            cloud.resource_version,
            required_qubits,
            min_qpus,
        )
        cached = self._qpu_sets.get(key)
        if cached is not None:
            self.hits += 1
            return list(cached)
        self.misses += 1
        selection = bfs_qpu_set(cloud, required_qubits, min_qpus=min_qpus)
        self._store(self._qpu_sets, key, tuple(selection))
        return selection
