"""Tests for the EPR generation model and routing helpers."""

import numpy as np
import pytest

from repro.cloud import CloudTopology, QuantumCloud
from repro.network import (
    EPRModel,
    all_pairs_cost,
    bottleneck_communication_capacity,
    expected_attempts,
    expected_cost,
    path_cost,
    shortest_path,
    widest_path_capacity,
)


@pytest.fixture
def line_topology() -> CloudTopology:
    return CloudTopology.line(4)


class TestEprModel:
    def test_same_qpu_is_certain(self, line_topology):
        model = EPRModel(line_topology, 0.3)
        assert model.pair_success_probability(1, 1) == 1.0
        assert model.hops(1, 1) == 0

    def test_single_hop_probability(self, line_topology):
        model = EPRModel(line_topology, 0.3)
        assert model.pair_success_probability(0, 1) == pytest.approx(0.3)

    def test_multi_hop_probability_multiplies(self, line_topology):
        model = EPRModel(line_topology, 0.5)
        assert model.pair_success_probability(0, 3) == pytest.approx(0.125)
        assert model.hops(0, 3) == 3

    def test_round_success_with_redundancy(self, line_topology):
        model = EPRModel(line_topology, 0.3)
        single = model.round_success_probability(0, 1, 1)
        triple = model.round_success_probability(0, 1, 3)
        assert triple == pytest.approx(1 - 0.7 ** 3)
        assert triple > single
        assert model.round_success_probability(0, 1, 0) == 0.0

    def test_expected_rounds(self, line_topology):
        model = EPRModel(line_topology, 0.25)
        assert model.expected_rounds(0, 1, 1) == pytest.approx(4.0)
        assert model.expected_rounds(0, 1, 0) == float("inf")

    def test_sample_round_statistics(self, line_topology):
        model = EPRModel(line_topology, 0.3)
        rng = np.random.default_rng(1)
        samples = [model.sample_round(0, 1, 1, rng) for _ in range(4000)]
        assert np.mean(samples) == pytest.approx(0.3, abs=0.03)

    def test_sample_round_zero_attempts_never_succeeds(self, line_topology):
        model = EPRModel(line_topology, 0.9)
        rng = np.random.default_rng(1)
        assert not model.sample_round(0, 1, 0, rng)

    def test_invalid_probability(self, line_topology):
        with pytest.raises(ValueError):
            EPRModel(line_topology, 0.0)

    def test_expected_attempts_helper(self):
        assert expected_attempts(0.25) == pytest.approx(4.0)
        with pytest.raises(ValueError):
            expected_attempts(0.0)


class TestRouting:
    def test_path_cost_is_hop_count(self, line_topology):
        assert path_cost(line_topology, 0, 3) == 3
        assert shortest_path(line_topology, 0, 3) == [0, 1, 2, 3]

    def test_all_pairs_cost_shape(self, line_topology):
        costs = all_pairs_cost(line_topology)
        assert len(costs) == 16
        assert costs[(0, 0)] == 0

    def test_expected_cost_scales_with_probability(self, line_topology):
        assert expected_cost(line_topology, 0, 2, 0.5) == pytest.approx(4.0)
        with pytest.raises(ValueError):
            expected_cost(line_topology, 0, 2, 0.0)

    def test_bottleneck_capacity(self):
        topology = CloudTopology.line(3)
        from repro.cloud import QPU

        qpus = {
            0: QPU(0, communication_capacity=5),
            1: QPU(1, communication_capacity=1),
            2: QPU(2, communication_capacity=5),
        }
        cloud = QuantumCloud(topology, qpus=qpus)
        assert bottleneck_communication_capacity(cloud, 0, 2) == 1

    def test_widest_path_routes_around_narrow_qpu(self):
        # Square: 0-1-2 and 0-3-2; QPU 1 is narrow, QPU 3 is wide.
        topology = CloudTopology.from_edges(4, [(0, 1), (1, 2), (0, 3), (3, 2)])
        from repro.cloud import QPU

        qpus = {
            0: QPU(0, communication_capacity=4),
            1: QPU(1, communication_capacity=1),
            2: QPU(2, communication_capacity=4),
            3: QPU(3, communication_capacity=4),
        }
        cloud = QuantumCloud(topology, qpus=qpus)
        assert widest_path_capacity(cloud, 0, 2) == 4
        assert widest_path_capacity(cloud, 0, 0) == 4

    def test_drained_relay_does_not_narrow_the_path(self):
        # A drained QPU keeps relaying entanglement swaps (the EPR model
        # still routes through it), so both helpers treat it as a relay.
        cloud = QuantumCloud(CloudTopology.line(3), communication_qubits_per_qpu=3)
        cloud.remove_qpu(1)
        assert bottleneck_communication_capacity(cloud, 0, 2) == 3
        assert widest_path_capacity(cloud, 0, 2) == 3
        model = EPRModel(cloud.topology, 0.5, qpu_probability=cloud.qpu_epr_probability)
        assert model.pair_success_probability(0, 2) == 0.25
