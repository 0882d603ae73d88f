"""One EPR round over the shared quantum network (Sec. V-C).

Both network simulators -- the single-batch :class:`~repro.sim.NetworkExecutor`
and the event-driven multi-tenant cluster simulator -- run their rounds
through :func:`network_round`: the scheduler divides every member QPU's
communication qubits among the round's requests, then each granted request
samples its EPR success, in request order, from the caller's rng.  What a
success means (when the operation finishes, what is bankable on preemption)
stays with the caller.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from ..cloud import QuantumCloud
from ..network import EPRModel
from ..scheduling import AllocationRequest, NetworkScheduler


def network_round(
    requests: Sequence[AllocationRequest],
    cloud: QuantumCloud,
    scheduler: NetworkScheduler,
    epr_model: EPRModel,
    rng: np.random.Generator,
) -> List[Tuple[str, int]]:
    """Allocate and sample one round; return the succeeded op ids in order."""
    qpus = cloud.qpus
    capacity = {
        qpu_id: qpus[qpu_id].communication_capacity for qpu_id in sorted(qpus)
    }
    allocation = scheduler.allocate(requests, capacity, rng=rng)
    succeeded: List[Tuple[str, int]] = []
    for request in requests:
        granted = allocation.get(request.op_id, 0)
        if granted > 0 and epr_model.sample_round(
            request.qpu_a, request.qpu_b, granted, rng
        ):
            succeeded.append(request.op_id)
    return succeeded
