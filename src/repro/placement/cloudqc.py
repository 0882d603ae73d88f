"""CloudQC circuit placement (Algorithm 1) and the CloudQC-BFS variant.

For each candidate (imbalance factor, part count) pair the pipeline is:

1. partition the qubit-interaction graph with the multilevel partitioner,
   unless the part count is too small for the free capacity (see
   :func:`fewest_covering_qpus`), and drop the partition if its part sizes
   cannot fit the free capacity (see :func:`parts_fit`),
2. select a QPU set -- community detection for CloudQC, BFS expansion for
   CloudQC-BFS,
3. map parts to QPUs with the graph-center heuristic (Algorithm 2),
4. score the resulting qubit mapping with ``S = alpha / T + beta / C``.

The highest-scoring mapping over all candidates is returned.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..circuits import QuantumCircuit
from ..cloud import QuantumCloud
from ..community import CommunityError
from .base import Placement, PlacementAlgorithm
from .context import PlacementContext
from .mapping import MappingError, expand_parts_to_qubits, map_partitions_to_qpus
from .qpu_selection import bfs_qpu_set, community_qpu_set
from .scoring import score_mapping

#: Imbalance factors explored by default (Algorithm 1's alpha list).
DEFAULT_IMBALANCE_FACTORS: Tuple[float, ...] = (0.05, 0.15, 0.30, 0.50)


def fewest_covering_qpus(free: Sequence[int], size: int) -> int:
    """Fewest QPUs whose free qubits add up to ``size`` (``free`` sorted, largest first).

    A candidate with fewer parts than this cannot be mapped: a partition has
    at most ``k`` non-empty parts, and mapping puts each part on one QPU with
    room for it, so its qubits land on at most ``k`` QPUs.
    """
    covered = 0
    for count, qubits in enumerate(free, start=1):
        covered += qubits
        if covered >= size:
            return count
    return len(free) + 1


def parts_fit(part_sizes: Iterable[int], free: Sequence[int]) -> bool:
    """Whether parts of these sizes can fit QPUs with these free qubits.

    Fails when, for some size ``t``, the parts of size >= ``t`` need more
    qubits than all QPUs with >= ``t`` free qubits hold.  Mapping only puts a
    part on a QPU with room for all of it, and its last resort is every QPU
    of the cloud, so no choice of candidate QPUs rescues such a partition.
    Checking ``t`` at each part size covers every ``t``.
    """
    needed = 0
    for size in sorted(part_sizes, reverse=True):
        needed += size
        if needed > sum(qubits for qubits in free if qubits >= size):
            return False
    return True


class CloudQCPlacement(PlacementAlgorithm):
    """The paper's placement algorithm (community detection + Algorithm 2)."""

    name = "cloudqc"
    qpu_selection = "community"

    def __init__(
        self,
        imbalance_factors: Sequence[float] = DEFAULT_IMBALANCE_FACTORS,
        alpha: float = 1.0,
        beta: float = 1.0,
        max_extra_parts: int = 4,
        community_method: str = "louvain",
        allow_single_qpu: bool = True,
    ) -> None:
        if not imbalance_factors:
            raise ValueError("at least one imbalance factor is required")
        self.imbalance_factors = tuple(imbalance_factors)
        self.alpha = alpha
        self.beta = beta
        self.max_extra_parts = max_extra_parts
        self.community_method = community_method
        self.allow_single_qpu = allow_single_qpu

    # ------------------------------------------------------------------
    # QPU-set selection (overridden by the BFS variant)
    # ------------------------------------------------------------------
    def _select_qpus(
        self,
        cloud: QuantumCloud,
        required_qubits: int,
        min_qpus: int,
        seed: Optional[int],
        context: Optional[PlacementContext] = None,
    ) -> List[int]:
        return community_qpu_set(
            cloud,
            required_qubits,
            min_qpus=min_qpus,
            method=self.community_method,
            seed=seed,
            context=context,
        )

    # ------------------------------------------------------------------
    # Algorithm 1
    # ------------------------------------------------------------------
    def place(
        self,
        circuit: QuantumCircuit,
        cloud: QuantumCloud,
        seed: Optional[int] = None,
        context: Optional[PlacementContext] = None,
    ) -> Placement:
        """Run Algorithm 1 over the (imbalance, num_parts) candidate grid.

        ``context`` memoizes the attempt's inputs (interaction graph,
        partitions, communities, QPU sets); passing one shared context across
        calls makes repeated attempts incremental.  Placements are identical
        with or without a context for any fixed seed.
        """
        if context is None:
            # An attempt-local context still dedupes work across the candidate
            # grid (one interaction graph build, one community detection per
            # imbalance factor instead of per (imbalance, num_parts) pair).
            context = PlacementContext()
        size = circuit.num_qubits
        if cloud.total_computing_available() < size:
            raise MappingError(
                f"cloud has {cloud.total_computing_available()} free qubits, "
                f"circuit {circuit.name} needs {size}"
            )

        # Fast path: the whole circuit fits on one QPU (Algorithm 1, line 2).
        if self.allow_single_qpu:
            host = cloud.fits_anywhere(size)
            if host is not None:
                mapping = {qubit: host for qubit in range(size)}
                metrics = score_mapping(
                    circuit,
                    mapping,
                    cloud,
                    alpha=self.alpha,
                    beta=self.beta,
                    gates=context.gate_table(circuit),
                )
                return Placement(
                    circuit=circuit,
                    mapping=mapping,
                    algorithm=self.name,
                    score=metrics["score"],
                    metadata=metrics,
                )

        # Free qubits per QPU, largest first: the capacity both prefilters
        # test candidates against (mapping reads the same live availability).
        free = sorted(
            (qpu.computing_available for qpu in cloud.qpus.values()), reverse=True
        )
        fewest = fewest_covering_qpus(free, size)
        candidates = [
            k for k in self._candidate_part_counts(size, cloud) if k >= fewest
        ]
        best: Optional[Placement] = None

        for attempt, imbalance in enumerate(self.imbalance_factors):
            # Seed derivation quirk, kept deliberately: the per-candidate seed
            # is ``seed + attempt`` where ``attempt`` indexes the *imbalance
            # factor* only, so all ``num_parts`` candidates at one imbalance
            # share a seed.  The pinned golden figures were produced with this
            # derivation, and the PlacementContext cache keys partitions and
            # QPU sets by (num_parts, imbalance, seed) -- changing the
            # derivation would silently re-key every cache entry.  A
            # determinism test pins it (tests/test_cloudqc_placement.py).
            for num_parts in candidates:
                placement = self._try_placement(
                    circuit,
                    cloud,
                    num_parts,
                    imbalance,
                    seed=None if seed is None else seed + attempt,
                    context=context,
                    free=free,
                )
                if placement is None:
                    continue
                if best is None or placement.score > best.score:
                    best = placement
        if best is None:
            raise MappingError(
                f"CloudQC could not find a feasible placement for {circuit.name}"
            )
        return best

    def _candidate_part_counts(
        self, circuit_size: int, cloud: QuantumCloud
    ) -> List[int]:
        """Part counts k explored by the search (Algorithm 1's inner loop)."""
        per_qpu = max(cloud.max_available_computing(), 1)
        min_parts = max(2, math.ceil(circuit_size / per_qpu))
        # detlint: ignore[DET003] integer count; sum is order-insensitive
        usable_qpus = sum(
            1 for q in cloud.qpus.values() if q.computing_available > 0
        )
        max_parts = min(cloud.num_qpus, usable_qpus, min_parts + self.max_extra_parts)
        return list(range(min_parts, max(max_parts, min_parts) + 1))

    def _try_placement(
        self,
        circuit: QuantumCircuit,
        cloud: QuantumCloud,
        num_parts: int,
        imbalance: float,
        seed: Optional[int],
        context: PlacementContext,
        free: Sequence[int],
    ) -> Optional[Placement]:
        if num_parts > circuit.num_qubits:
            return None
        assignment = context.partition(circuit, num_parts, imbalance, seed)
        part_sizes: Dict[int, int] = {}
        for part in assignment.values():
            part_sizes[part] = part_sizes.get(part, 0) + 1
        if not parts_fit(part_sizes.values(), free):
            return None

        try:
            qpu_set = self._select_qpus(
                cloud,
                circuit.num_qubits,
                min_qpus=len(part_sizes),
                seed=seed,
                context=context,
            )
            quotient = context.quotient(
                circuit, assignment, num_parts, imbalance, seed
            )
            part_to_qpu = map_partitions_to_qpus(
                part_sizes, quotient, cloud, qpu_set, context=context
            )
            mapping = expand_parts_to_qubits(assignment, part_to_qpu)
        except (MappingError, CommunityError):
            # This (imbalance, k) candidate is infeasible; try the next one.
            return None

        metrics = score_mapping(
            circuit,
            mapping,
            cloud,
            alpha=self.alpha,
            beta=self.beta,
            gates=context.gate_table(circuit),
        )
        metrics["num_parts"] = float(len(part_sizes))
        metrics["imbalance"] = float(imbalance)
        return Placement(
            circuit=circuit,
            mapping=mapping,
            algorithm=self.name,
            score=metrics["score"],
            metadata=metrics,
        )


class CloudQCBFSPlacement(CloudQCPlacement):
    """CloudQC-BFS: identical pipeline but BFS-based QPU selection (Sec. VI-B)."""

    name = "cloudqc-bfs"
    qpu_selection = "bfs"

    def _select_qpus(
        self,
        cloud: QuantumCloud,
        required_qubits: int,
        min_qpus: int,
        seed: Optional[int],
        context: Optional[PlacementContext] = None,
    ) -> List[int]:
        return bfs_qpu_set(
            cloud, required_qubits, min_qpus=min_qpus, context=context
        )
