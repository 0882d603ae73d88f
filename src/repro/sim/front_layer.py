"""Shared front-layer tracking for remote-operation DAGs.

Both network simulators (the single-batch :class:`~repro.sim.NetworkExecutor`
and the event-driven multi-tenant cluster simulator) execute a
:class:`~repro.scheduling.RemoteDAG` the same way: every EPR round, the
*front layer* -- the remote operations whose predecessors have all finished --
competes for communication qubits, and a success unlocks its successors.
This module holds that bookkeeping in one place, with an indexed ready set so
finishing an operation is O(successors) instead of the O(front * log front)
of a re-sorted ready list.  Where front-layer execution sits in the overall
event-driven flow is documented in ``docs/architecture.md``.
"""

from __future__ import annotations

import heapq
from typing import Dict, Iterable, List, Mapping, Optional, Set, Tuple

from ..scheduling import AllocationRequest, RemoteDAG


class FrontLayer:
    """Tracks the ready front of one job's remote DAG as operations finish."""

    __slots__ = (
        "dag",
        "pending_predecessors",
        "ready",
        "completed",
        "last_finish",
        "_requests",
    )

    def __init__(self, dag: RemoteDAG, start_time: float = 0.0) -> None:
        self.dag = dag
        self.pending_predecessors: Dict[int, int] = {
            node_id: len(operation.predecessors)
            for node_id, operation in dag.operations.items()
        }
        self.ready: Set[int] = {
            node for node, count in self.pending_predecessors.items() if count == 0
        }
        self.completed = 0
        self.last_finish = start_time
        # (job id, requests) of the current ready set; see requests().
        self._requests: Optional[Tuple[str, List[AllocationRequest]]] = None

    @property
    def done(self) -> bool:
        return self.completed == self.dag.num_operations

    def ready_nodes(self) -> List[int]:
        """Front-layer node ids in deterministic (ascending) order."""
        return sorted(self.ready)

    def snapshot(self) -> Dict[str, int]:
        """Progress counters of this front layer (for preemption bookkeeping).

        The returned ``completed`` count is what a resumed job feeds back into
        :meth:`fast_forward` so already-succeeded EPR rounds are not redone.
        """
        return {
            "completed": self.completed,
            "total": self.dag.num_operations,
            "ready": len(self.ready),
        }

    def fast_forward(self, num_ops: int, finish_time: float) -> int:
        """Instantly finish up to ``num_ops`` operations in deterministic order.

        Used when a preempted job resumes: the EPR successes it already
        banked are credited without consuming rounds (or RNG).  Operations
        are retired in ascending node-id order, respecting DAG dependencies,
        so the credit is well defined even when the job resumes under a
        different placement whose remote DAG differs from the original.
        Returns the number of operations actually credited.

        A heap over the ready set keeps this O(ops log front) -- repeated
        ``min(self.ready)`` would reintroduce the quadratic front-
        maintenance cost this module exists to avoid -- while crediting in
        exactly the ascending-node-id order the docstring promises.
        """
        credited = 0
        heap = list(self.ready)
        heapq.heapify(heap)
        while credited < num_ops and heap:
            node_id = heapq.heappop(heap)
            self.finish(node_id, finish_time)
            for successor in self.dag.operation(node_id).successors:
                # finish() just unlocked these: they were not ready before
                # (this node was an unfinished predecessor), so each enters
                # the heap exactly once.
                if self.pending_predecessors[successor] == 0:
                    heapq.heappush(heap, successor)
            credited += 1
        return credited

    def restore(
        self,
        pending_predecessors: Mapping[int, int],
        ready: Iterable[int],
        completed: int,
        last_finish: float,
    ) -> None:
        """Overwrite the progress counters with a checkpoint's values.

        ``update()`` keeps the deterministic rebuild order of
        ``pending_predecessors``; the cached requests belong to the old
        ready set and are dropped.
        """
        self.pending_predecessors.update(pending_predecessors)
        self.ready = set(ready)
        self.completed = completed
        self.last_finish = last_finish
        self._requests = None

    def finish(self, node_id: int, finish_time: float) -> None:
        """Mark a ready operation finished, unlocking its successors."""
        self._requests = None
        self.completed += 1
        self.last_finish = max(self.last_finish, finish_time)
        self.ready.remove(node_id)
        for successor in self.dag.operation(node_id).successors:
            self.pending_predecessors[successor] -= 1
            if self.pending_predecessors[successor] == 0:
                self.ready.add(successor)

    def requests(self, job_id: str) -> List[AllocationRequest]:
        """Allocation requests for the current front layer, in node-id order.

        The ready set only changes in :meth:`finish` (and :meth:`restore`),
        so the list built here is returned again, unchanged, until then.
        Callers must not mutate it.
        """
        cached = self._requests
        if cached is not None and cached[0] == job_id:
            return cached[1]
        requests: List[AllocationRequest] = []
        for node_id in self.ready_nodes():
            operation = self.dag.operation(node_id)
            requests.append(
                AllocationRequest(
                    op_id=(job_id, node_id),
                    qpu_a=operation.qpus[0],
                    qpu_b=operation.qpus[1],
                    priority=operation.priority,
                )
            )
        self._requests = (job_id, requests)
        return requests
