"""Tests for the Job model and its ordering metric."""

import pytest

from repro.circuits import QuantumCircuit
from repro.cloud import Job, JobStatus


@pytest.fixture
def dense_circuit() -> QuantumCircuit:
    circuit = QuantumCircuit(4, name="dense")
    for _ in range(6):
        circuit.cx(0, 1)
        circuit.cx(2, 3)
    return circuit


class TestLifecycle:
    def test_initial_state(self, dense_circuit):
        job = Job(circuit=dense_circuit, job_id="job-0", arrival_time=3.0)
        assert job.status is JobStatus.PENDING
        assert job.arrival_time == 3.0
        assert job.job_completion_time is None
        assert job.placement is None

    def test_job_id_is_required(self, dense_circuit):
        with pytest.raises(TypeError):
            Job(circuit=dense_circuit)

    def test_placed_running_completed_flow(self, dense_circuit):
        job = Job(circuit=dense_circuit, job_id="job-0", arrival_time=1.0)
        job.mark_placed({0: 0, 1: 0, 2: 1, 3: 1})
        assert job.status is JobStatus.PLACED
        job.mark_running(2.0)
        assert job.status is JobStatus.RUNNING
        job.mark_completed(12.0)
        assert job.status is JobStatus.COMPLETED
        assert job.job_completion_time == pytest.approx(11.0)

    def test_mark_failed(self, dense_circuit):
        job = Job(circuit=dense_circuit, job_id="job-0")
        job.mark_failed()
        assert job.status is JobStatus.FAILED

    def test_qubits_per_qpu(self, dense_circuit):
        job = Job(circuit=dense_circuit, job_id="job-0")
        job.mark_placed({0: 0, 1: 0, 2: 1, 3: 2})
        assert job.qubits_per_qpu() == {0: 2, 1: 1, 2: 1}

    def test_qubits_per_qpu_without_placement(self, dense_circuit):
        assert Job(circuit=dense_circuit, job_id="job-0").qubits_per_qpu() == {}


class TestMetric:
    def test_priority_metric_formula(self, dense_circuit):
        job = Job(circuit=dense_circuit, job_id="job-0")
        expected = 12 / 4 + 4 + dense_circuit.depth()
        assert job.priority_metric() == pytest.approx(expected)

    def test_priority_metric_weights(self, dense_circuit):
        job = Job(circuit=dense_circuit, job_id="job-0")
        only_depth = job.priority_metric(
            lambda_density=0.0, lambda_qubits=0.0, lambda_depth=2.0
        )
        assert only_depth == pytest.approx(2.0 * dense_circuit.depth())

    def test_properties_delegate_to_circuit(self, dense_circuit):
        job = Job(circuit=dense_circuit, job_id="job-0")
        assert job.name == "dense"
        assert job.num_qubits == 4
        assert job.num_two_qubit_gates == 12
        assert job.depth == dense_circuit.depth()
