"""Tests for placement scoring and the execution-time estimator."""

import pytest

from repro.circuits import QuantumCircuit
from repro.placement import (
    communication_cost,
    estimate_execution_time,
    placement_score,
    score_mapping,
)
from repro.placement.scoring import gate_table
from repro.sim import DEFAULT_LATENCY


@pytest.fixture
def two_gate_circuit() -> QuantumCircuit:
    circuit = QuantumCircuit(3, name="pair")
    circuit.h(0)
    circuit.cx(0, 1)
    circuit.cx(1, 2)
    return circuit


class TestEstimateExecutionTime:
    def test_all_local_equals_critical_path(self, two_gate_circuit, small_cloud):
        mapping = {0: 0, 1: 0, 2: 0}
        estimate = estimate_execution_time(two_gate_circuit, mapping, small_cloud)
        assert estimate == pytest.approx(0.1 + 1.0 + 1.0)

    def test_remote_gate_adds_expected_epr_cost(self, two_gate_circuit, small_cloud):
        local = estimate_execution_time(two_gate_circuit, {0: 0, 1: 0, 2: 0}, small_cloud)
        remote = estimate_execution_time(two_gate_circuit, {0: 0, 1: 0, 2: 1}, small_cloud)
        assert remote > local
        expected_extra = DEFAULT_LATENCY.expected_remote_gate_latency(0.5) - 1.0
        assert remote - local == pytest.approx(expected_extra)

    def test_multi_hop_remote_costs_more(self, two_gate_circuit, small_cloud):
        one_hop = estimate_execution_time(two_gate_circuit, {0: 0, 1: 0, 2: 1}, small_cloud)
        three_hops = estimate_execution_time(two_gate_circuit, {0: 0, 1: 0, 2: 3}, small_cloud)
        assert three_hops > one_hop

    def test_probability_override(self, two_gate_circuit, small_cloud):
        slow = estimate_execution_time(
            two_gate_circuit, {0: 0, 1: 0, 2: 1}, small_cloud, epr_success_probability=0.1
        )
        fast = estimate_execution_time(
            two_gate_circuit, {0: 0, 1: 0, 2: 1}, small_cloud, epr_success_probability=0.9
        )
        assert slow > fast

    def test_empty_circuit(self, small_cloud):
        circuit = QuantumCircuit(2)
        assert estimate_execution_time(circuit, {0: 0, 1: 0}, small_cloud) == 0.0


class TestGateTable:
    def test_table_scores_like_the_gates(self, small_cloud):
        circuit = QuantumCircuit(4, name="mixed")
        circuit.h(0)
        circuit.cx(0, 1)
        circuit.add("barrier", 0, 1, 2, 3)
        circuit.cx(1, 3)
        circuit.rzz(0.3, 2, 3)
        circuit.swap(0, 2)
        circuit.measure_all()
        table = gate_table(circuit)
        assert [qubits for qubits, _ in table] == [g.qubits for g in circuit.gates]
        for mapping in ({0: 0, 1: 0, 2: 1, 3: 3}, {0: 0, 1: 1, 2: 2, 3: 3}):
            assert score_mapping(circuit, mapping, small_cloud, gates=table) == (
                score_mapping(circuit, mapping, small_cloud)
            )

    def test_kind_latency_matches_gate_latency(self, two_gate_circuit):
        for gate in two_gate_circuit.gates:
            assert DEFAULT_LATENCY.kind_latency(gate.kind) == (
                DEFAULT_LATENCY.gate_latency(gate)
            )


class TestCommunicationCost:
    def test_cost_counts_cross_gate_distances(self, two_gate_circuit, small_cloud):
        assert communication_cost(two_gate_circuit, {0: 0, 1: 0, 2: 0}, small_cloud) == 0.0
        assert communication_cost(two_gate_circuit, {0: 0, 1: 1, 2: 3}, small_cloud) == 1 + 2

    def test_cost_matches_placement_object(self, two_gate_circuit, small_cloud):
        from repro.placement import Placement

        mapping = {0: 0, 1: 2, 2: 3}
        placement = Placement(two_gate_circuit, mapping)
        assert communication_cost(two_gate_circuit, mapping, small_cloud) == pytest.approx(
            placement.communication_cost(small_cloud)
        )


class TestScore:
    def test_score_prefers_lower_time_and_cost(self):
        good = placement_score(estimated_time=10.0, cost=5.0)
        bad = placement_score(estimated_time=20.0, cost=50.0)
        assert good > bad

    def test_zero_values_do_not_divide_by_zero(self):
        assert placement_score(0.0, 0.0) == pytest.approx(2.0)

    def test_alpha_beta_weighting(self):
        time_heavy = placement_score(10.0, 10.0, alpha=10.0, beta=0.0)
        cost_heavy = placement_score(10.0, 10.0, alpha=0.0, beta=10.0)
        assert time_heavy == pytest.approx(cost_heavy)

    def test_score_mapping_returns_all_fields(self, two_gate_circuit, small_cloud):
        metrics = score_mapping(two_gate_circuit, {0: 0, 1: 0, 2: 1}, small_cloud)
        assert set(metrics) == {"estimated_time", "communication_cost", "score"}
        assert metrics["score"] == pytest.approx(
            placement_score(metrics["estimated_time"], metrics["communication_cost"])
        )
