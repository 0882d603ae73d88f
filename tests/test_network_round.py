"""The EPR-round path: golden pins, the CloudQC allocation reference, and
liveness of the round's caches.

The goldens were recorded with the two per-simulator round loops that the
shared :func:`~repro.sim.network_round` kernel replaced, before the path
table, the front-layer request cache and the flat CloudQC allocation pass
went in.  Each value is compared with ``==``: a mismatch means the round
path changed an RNG draw, a float or a grant.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.multitenant.cluster_sim as cluster_sim
from repro.circuits.library import get_circuit
from repro.cloud import CloudTopology, QuantumCloud
from repro.multitenant import (
    CalibrationWindow,
    CheckpointConfig,
    FaultInjector,
    MultiTenantSimulator,
    priority_batch_manager,
)
from repro.network import EPRModel
from repro.placement import CloudQCPlacement
from repro.scheduling import (
    AllocationRequest,
    CloudQCScheduler,
    RemoteDAG,
    charge,
    get_scheduler,
    is_feasible,
    max_allocatable,
)
from repro.sim import FrontLayer, NetworkExecutor, ScheduledJob, network_round

# ----------------------------------------------------------------------
# Golden pins of the round path
# ----------------------------------------------------------------------

#: (circuit, first QPU, start time): each job spans its first QPU and that
#: QPU's two lowest-numbered neighbours, so some remote operations cross
#: two hops.
EXECUTOR_JOBS = [
    ("qft_n16", 0, 0.0),
    ("ghz_n24", 7, 0.0),
    ("qugan_n39", 3, 25.0),
    ("qft_n16", 11, 60.0),
]

#: scheduler -> [(job id, completion time, EPR rounds)] at seed 11.
EXECUTOR_GOLDEN = {
    "cloudqc": [
        ("j0", 14896.0, 1489),
        ("j1", 3706.0, 370),
        ("j2", 7846.0, 781),
        ("j3", 12236.0, 1217),
    ],
    "greedy": [
        ("j0", 16856.0, 1685),
        ("j1", 16966.0, 1696),
        ("j2", 9346.0, 931),
        ("j3", 12806.0, 1274),
    ],
    "average": [
        ("j0", 13866.0, 1386),
        ("j1", 2546.0, 254),
        ("j2", 8926.0, 889),
        ("j3", 13946.0, 1388),
    ],
    "random": [
        ("j0", 13036.0, 1303),
        ("j1", 3576.0, 357),
        ("j2", 8446.0, 841),
        ("j3", 13836.0, 1377),
    ],
}

BATCH = ["qft_n16", "ghz_n24", "qugan_n39", "multiplier_n45", "ising_n34"]
#: sha256 over the run_batch results of BATCH at seed 5.
BATCH_GOLDEN = "c0ac6c3ff432893e1f82fbb6a1e32b032a3d5f93e4cd687ce35d61f89936cdc4"


def paper_cloud() -> QuantumCloud:
    return QuantumCloud.default(seed=7, epr_success_probability=0.1)


def executor_jobs(cloud: QuantumCloud):
    jobs = []
    for index, (name, first, start) in enumerate(EXECUTOR_JOBS):
        circuit = get_circuit(name)
        qpus = [first] + cloud.topology.neighbors(first)[:2]
        mapping = {
            q: qpus[q * len(qpus) // circuit.num_qubits]
            for q in range(circuit.num_qubits)
        }
        jobs.append(ScheduledJob(f"j{index}", circuit, mapping, start_time=start))
    return jobs


@pytest.mark.parametrize("name", sorted(EXECUTOR_GOLDEN))
def test_executor_round_path_golden(name):
    cloud = paper_cloud()
    results = NetworkExecutor(cloud, get_scheduler(name)).execute(
        executor_jobs(cloud), seed=11
    )
    got = [
        (job_id, result.completion_time, result.epr_rounds)
        for job_id, result in sorted(results.items())
    ]
    assert got == EXECUTOR_GOLDEN[name]


def test_run_batch_round_path_golden():
    simulator = MultiTenantSimulator(
        paper_cloud(),
        CloudQCPlacement(),
        CloudQCScheduler(),
        batch_manager=priority_batch_manager(),
    )
    results = simulator.run_batch([get_circuit(n) for n in BATCH], seed=5)
    digest = hashlib.sha256()
    for r in results:
        digest.update(
            repr(
                (
                    r.circuit_name,
                    r.placement_time,
                    r.completion_time,
                    r.num_remote_operations,
                    r.num_qpus_used,
                )
            ).encode()
        )
    assert digest.hexdigest() == BATCH_GOLDEN


# ----------------------------------------------------------------------
# CloudQC allocation against the two-pass reference
# ----------------------------------------------------------------------


def reference_cloudqc_allocate(requests, capacity, max_redundancy):
    """The two-pass CloudQC allocation as written before the flat pass."""
    remaining = dict(capacity)
    allocation = {}
    ordered = sorted(requests, key=lambda r: (-r.priority, r.op_id))
    for request in ordered:
        if max_allocatable(request, remaining) >= 1:
            allocation[request.op_id] = 1
            charge(request, 1, remaining)
    progress = True
    while progress:
        progress = False
        for request in ordered:
            granted = allocation.get(request.op_id, 0)
            if granted == 0:
                continue
            if max_redundancy is not None and granted >= max_redundancy:
                continue
            if max_allocatable(request, remaining) >= 1:
                allocation[request.op_id] = granted + 1
                charge(request, 1, remaining)
                progress = True
    return allocation


@st.composite
def allocation_problems(draw):
    num_qpus = draw(st.integers(min_value=2, max_value=6))
    pairs = st.tuples(
        st.integers(0, num_qpus - 1), st.integers(0, num_qpus - 1)
    ).filter(lambda pair: pair[0] != pair[1])
    raw = draw(
        st.lists(
            st.tuples(
                st.sampled_from(["a", "b", "c"]),
                st.integers(0, 30),
                pairs,
                st.integers(-3, 8),
            ),
            max_size=14,
            unique_by=lambda item: (item[0], item[1]),
        )
    )
    requests = [
        AllocationRequest(op_id=(job, node), qpu_a=a, qpu_b=b, priority=priority)
        for job, node, (a, b), priority in raw
    ]
    # Some QPUs are left out of the capacity map entirely.
    present = draw(st.lists(st.booleans(), min_size=num_qpus, max_size=num_qpus))
    capacity = {
        qpu: draw(st.integers(0, 6))
        for qpu, here in zip(range(num_qpus), present)
        if here
    }
    return requests, capacity


@settings(max_examples=300, deadline=None)
@given(
    problem=allocation_problems(),
    max_redundancy=st.sampled_from([None, 1, 3]),
)
def test_cloudqc_allocate_matches_two_pass_reference(problem, max_redundancy):
    requests, capacity = problem
    got = CloudQCScheduler(max_redundancy=max_redundancy).allocate(
        requests, capacity
    )
    expected = reference_cloudqc_allocate(requests, capacity, max_redundancy)
    assert list(got.items()) == list(expected.items())  # grants and order
    assert is_feasible(requests, got, capacity)


# ----------------------------------------------------------------------
# Cache liveness
# ----------------------------------------------------------------------


class TestPathTableLiveness:
    def test_link_edit_after_first_call_changes_next_result(self):
        topology = CloudTopology.line(3)
        assert topology.path_success_probability(0, 2, 0.5) == 0.25
        topology.graph.edges[0, 1]["epr_success_probability"] = 0.9
        assert topology.path_success_probability(0, 2, 0.5) == 0.9 * 0.5
        assert topology.path_success_probability(2, 0, 0.5) == 0.5 * 0.9

    def test_node_probability_is_read_on_every_call(self):
        topology = CloudTopology.line(3)
        overrides = {}
        lookup = overrides.get
        assert topology.path_success_probability(0, 2, 0.5, lookup) == 0.25
        overrides[1] = 0.2
        assert topology.path_success_probability(0, 2, 0.5, lookup) == 0.2 * 0.2

    def test_matches_uncached_hop_product(self):
        topology = CloudTopology.random(num_qpus=12, edge_probability=0.25, seed=4)
        for (u, v), p in zip(topology.links(), np.linspace(0.05, 0.95, 40)):
            if (u + v) % 3 == 0:
                topology.graph.edges[u, v]["epr_success_probability"] = float(p)
        lookup = {4: 0.07, 9: 0.6}.get
        for a in topology.qpu_ids:
            for b in topology.qpu_ids:
                path = nx.shortest_path(topology.graph, a, b)
                expected = 1.0
                for u, v in zip(path, path[1:]):
                    expected *= topology.link_success_probability(u, v, 0.3, lookup)
                for _ in range(2):  # cold, then from the table
                    got = topology.path_success_probability(a, b, 0.3, lookup)
                    assert got == expected


class TestFrontLayerRequestCache:
    def test_cached_until_finish(self):
        circuit = get_circuit("ghz_n9")
        front = FrontLayer(RemoteDAG(circuit, {q: q // 3 for q in range(9)}))
        first = front.requests("job")
        assert front.requests("job") is first
        node = first[0].op_id[1]
        front.finish(node, 1.0)
        after = front.requests("job")
        assert after is not first
        assert [r.op_id[1] for r in after] == front.ready_nodes()

    def test_other_job_id_rebuilds(self):
        circuit = get_circuit("ghz_n9")
        front = FrontLayer(RemoteDAG(circuit, {q: q // 3 for q in range(9)}))
        front.requests("a")
        assert all(r.op_id[0] == "b" for r in front.requests("b"))

    def test_restore_drops_cached_requests(self):
        circuit = get_circuit("ghz_n9")
        dag = RemoteDAG(circuit, {q: q // 3 for q in range(9)})
        live = FrontLayer(dag)
        stale = live.requests("job")
        live.finish(stale[0].op_id[1], 2.0)
        restored = FrontLayer(dag)
        restored.requests("job")
        restored.restore(
            live.pending_predecessors, live.ready, live.completed, live.last_finish
        )
        assert restored.requests("job") == live.requests("job")


def _round_outcome(cloud: QuantumCloud, epr_model: EPRModel, seed: int):
    request = AllocationRequest(op_id=("job", 0), qpu_a=0, qpu_b=2)
    return network_round(
        [request], cloud, CloudQCScheduler(), epr_model, np.random.default_rng(seed)
    )


def test_calibration_override_mid_run_changes_next_round():
    cloud = QuantumCloud(
        CloudTopology.line(3),
        communication_qubits_per_qpu=1,
        epr_success_probability=1.0,
    )
    model = EPRModel(cloud.topology, 1.0, qpu_probability=cloud.qpu_epr_probability)
    assert _round_outcome(cloud, model, seed=3) == [("job", 0)]
    cloud.set_qpu_epr_probability(1, 1e-12)
    assert _round_outcome(cloud, model, seed=3) == []
    cloud.set_qpu_epr_probability(1, None)
    assert _round_outcome(cloud, model, seed=3) == [("job", 0)]


def test_calibration_window_reaches_the_simulator_rounds():
    """A calibration window that opens mid-run slows the jobs it touches."""

    def run(events):
        cloud = QuantumCloud(
            CloudTopology.line(3),
            computing_qubits_per_qpu=8,
            communication_qubits_per_qpu=2,
            epr_success_probability=0.5,
        )
        simulator = MultiTenantSimulator(
            cloud,
            CloudQCPlacement(),
            CloudQCScheduler(),
            fault_injector=FaultInjector(events),
        )
        return simulator.run_stream([get_circuit("qft_n16")], [0.0], seed=4)

    baseline = run([])
    window = CalibrationWindow(
        time=30.0, qpu_id=1, duration=1e6, epr_success_probability=0.01
    )
    slowed = run([window])
    assert baseline[0].placement_time == slowed[0].placement_time
    assert slowed[0].completion_time > baseline[0].completion_time


def test_resume_with_cached_requests_in_flight(tmp_path):
    """Snapshots taken while fronts hold cached request lists resume exactly."""
    snapshots = []
    original_write = cluster_sim.write_snapshot

    def keep_copy(path, fingerprint, state):
        size = original_write(path, fingerprint, state)
        copy = os.path.join(tmp_path, f"snap_{len(snapshots)}.json")
        shutil.copy(path, copy)
        snapshots.append(copy)
        return size

    def simulator():
        return MultiTenantSimulator(
            QuantumCloud(
                CloudTopology.line(4),
                computing_qubits_per_qpu=10,
                communication_qubits_per_qpu=2,
                epr_success_probability=0.2,
            ),
            CloudQCPlacement(),
            CloudQCScheduler(),
        )

    circuits = [get_circuit(n) for n in ("qft_n16", "ghz_n24", "qft_n16")]
    arrivals = [0.0, 5.0, 40.0]

    def key(results):
        return [repr(sorted(r.__dict__.items())) for r in results]

    baseline = key(simulator().run_stream(circuits, arrivals, seed=6))
    cluster_sim.write_snapshot = keep_copy
    try:
        checkpointed = simulator().run_stream(
            circuits,
            arrivals,
            seed=6,
            checkpoint=CheckpointConfig(
                path=str(tmp_path / "snap.json"), every_sim_time=150.0
            ),
        )
    finally:
        cluster_sim.write_snapshot = original_write
    assert key(checkpointed) == baseline

    in_flight = 0
    for snapshot in snapshots:
        with open(snapshot) as handle:
            active = json.load(handle)["state"]["active"]
        if any(saved["front"]["ready"] for saved in active):
            in_flight += 1
            assert key(simulator().resume_stream(snapshot)) == baseline
    assert in_flight >= 2
