"""Tests for the multilevel k-way graph partitioner and its metrics."""

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits import InteractionGraph
from repro.circuits.library import ghz, qft
from repro.partition import (
    FlatGraph,
    PartitionError,
    assignment_to_parts,
    coarsen,
    contract,
    edge_cut,
    heavy_edge_matching,
    imbalance,
    is_valid_partition,
    part_weights,
    partition_graph,
    parts_to_assignment,
    rebalance,
    refine,
)
from repro.partition.kway import _spread_seeds


def two_cliques(size: int = 6, bridge_weight: float = 1.0) -> nx.Graph:
    graph = nx.Graph()
    for base in (0, size):
        for i in range(base, base + size):
            for j in range(i + 1, base + size):
                graph.add_edge(i, j, weight=5.0)
    graph.add_edge(0, size, weight=bridge_weight)
    return graph


class TestMetrics:
    def test_edge_cut_counts_weights(self):
        graph = nx.Graph()
        graph.add_edge(0, 1, weight=3.0)
        graph.add_edge(1, 2, weight=2.0)
        assert edge_cut(graph, {0: 0, 1: 0, 2: 1}) == 2.0
        assert edge_cut(graph, {0: 0, 1: 1, 2: 0}) == 5.0

    def test_part_weights_and_imbalance(self):
        graph = nx.Graph()
        graph.add_nodes_from(range(4))
        assignment = {0: 0, 1: 0, 2: 0, 3: 1}
        weights = part_weights(graph, assignment, 2)
        assert weights == {0: 3.0, 1: 1.0}
        assert imbalance(graph, assignment, 2) == pytest.approx(0.5)

    def test_perfectly_balanced_imbalance_is_zero(self):
        graph = nx.Graph()
        graph.add_nodes_from(range(4))
        assert imbalance(graph, {0: 0, 1: 0, 2: 1, 3: 1}, 2) == pytest.approx(0.0)

    def test_is_valid_partition(self):
        graph = nx.path_graph(3)
        assert is_valid_partition(graph, {0: 0, 1: 1, 2: 0}, 2)
        assert not is_valid_partition(graph, {0: 0, 1: 1}, 2)
        assert not is_valid_partition(graph, {0: 0, 1: 5, 2: 0}, 2)

    def test_parts_assignment_round_trip(self):
        parts = {0: {1, 2}, 1: {3}}
        assignment = parts_to_assignment(parts)
        assert assignment_to_parts(assignment) == parts


class TestCoarsening:
    def test_heavy_edge_matching_is_a_matching(self):
        graph = two_cliques()
        rng = np.random.default_rng(0)
        matching = heavy_edge_matching(graph, rng)
        seen = set()
        for a, b in matching:
            assert a not in seen and b not in seen
            seen.add(a)
            seen.add(b)

    def test_contract_preserves_total_node_weight(self):
        graph = two_cliques()
        rng = np.random.default_rng(0)
        level = contract(graph, heavy_edge_matching(graph, rng))
        assert sum(level.graph.weight) == graph.number_of_nodes()

    def test_coarsen_reduces_size(self):
        graph = two_cliques(size=10)
        levels = coarsen(graph, target_size=5, seed=1)
        assert levels
        assert len(levels[-1].graph) < graph.number_of_nodes()

    def test_coarsen_projections_cover_previous_level(self):
        graph = two_cliques(size=8)
        levels = coarsen(graph, target_size=4, seed=1)
        size = graph.number_of_nodes()
        for level in levels:
            # Projections are by node position: every fine node maps onto a
            # coarse node, and every coarse node has a fine preimage.
            assert len(level.projection) == size
            assert set(level.projection) == set(range(len(level.graph)))
            size = len(level.graph)


class TestRefinement:
    def test_refine_improves_or_keeps_cut(self):
        graph = two_cliques()
        bad = {node: node % 2 for node in graph.nodes()}
        better = refine(graph, bad, 2, max_part_weight=7.0, seed=0)
        assert edge_cut(graph, better) <= edge_cut(graph, bad)

    def test_refine_respects_balance_cap(self):
        graph = two_cliques()
        assignment = {node: (0 if node < 6 else 1) for node in graph.nodes()}
        refined = refine(graph, assignment, 2, max_part_weight=7.0, seed=0)
        weights = part_weights(graph, refined, 2)
        assert max(weights.values()) <= 7.0

    def test_rebalance_fixes_overloaded_parts(self):
        graph = nx.path_graph(6)
        assignment = {node: 0 for node in graph.nodes()}
        fixed = rebalance(graph, assignment, 2, max_part_weight=4.0)
        weights = part_weights(graph, fixed, 2)
        assert max(weights.values()) <= 4.0


class TestPartitionGraph:
    def test_two_cliques_are_separated(self):
        graph = two_cliques()
        assignment = partition_graph(graph, 2, imbalance=0.1, seed=3)
        # Each clique should end up in one part: the cut is just the bridge.
        assert edge_cut(graph, assignment) == pytest.approx(1.0)

    def test_single_part_is_trivial(self):
        graph = two_cliques()
        assignment = partition_graph(graph, 1)
        assert set(assignment.values()) == {0}

    def test_all_nodes_assigned_and_parts_in_range(self):
        graph = nx.erdos_renyi_graph(40, 0.2, seed=4)
        nx.set_edge_attributes(graph, 1.0, "weight")
        assignment = partition_graph(graph, 5, imbalance=0.2, seed=1)
        assert is_valid_partition(graph, assignment, 5)

    def test_balance_constraint_respected(self):
        graph = nx.erdos_renyi_graph(60, 0.15, seed=5)
        nx.set_edge_attributes(graph, 1.0, "weight")
        assignment = partition_graph(graph, 4, imbalance=0.1, seed=1)
        weights = part_weights(graph, assignment, 4)
        assert max(weights.values()) <= (1.1 * 60 / 4) + 1e-9

    def test_empty_graph(self):
        assert partition_graph(nx.Graph(), 3) == {}

    def test_too_many_parts_raises(self):
        graph = nx.path_graph(3)
        with pytest.raises(PartitionError):
            partition_graph(graph, 4)

    def test_invalid_arguments(self):
        graph = nx.path_graph(3)
        with pytest.raises(PartitionError):
            partition_graph(graph, 0)
        with pytest.raises(PartitionError):
            partition_graph(graph, 2, imbalance=-0.1)

    def test_ghz_chain_bisection_cut_is_one(self):
        interaction = InteractionGraph.from_circuit(ghz(32))
        assignment = partition_graph(interaction.to_networkx(), 2, seed=2)
        assert edge_cut(interaction.to_networkx(), assignment) == pytest.approx(1.0)

    def test_partition_beats_random_on_qft(self):
        interaction = InteractionGraph.from_circuit(qft(24)).to_networkx()
        assignment = partition_graph(interaction, 3, seed=2)
        rng = np.random.default_rng(0)
        random_assignment = {node: int(rng.integers(3)) for node in interaction.nodes()}
        assert edge_cut(interaction, assignment) <= edge_cut(
            interaction, random_assignment
        )

    def test_determinism_with_seed(self):
        graph = nx.erdos_renyi_graph(30, 0.2, seed=9)
        nx.set_edge_attributes(graph, 1.0, "weight")
        a = partition_graph(graph, 3, seed=11)
        b = partition_graph(graph, 3, seed=11)
        assert a == b


@settings(max_examples=100, deadline=None)
@given(
    st.integers(min_value=2, max_value=14),
    st.floats(min_value=0.0, max_value=1.0),
    st.integers(min_value=0, max_value=10_000),
    st.integers(min_value=1, max_value=14),
)
def test_spread_seeds_are_distinct(num_nodes, density, graph_seed, num_parts):
    """The k-center seed pick never returns a seed twice.

    Seeds sit at distance 0 from the seed set and every other node at >= 1
    (unreachable nodes at ``n``), so the farthest node is never a seed; the
    seed list needs no fallback draw.
    """
    graph = nx.gnp_random_graph(num_nodes, density, seed=graph_seed)
    flat = FlatGraph.of(graph)
    seeds = _spread_seeds(flat, num_parts)
    assert len(seeds) == min(num_parts, num_nodes)
    assert len(set(seeds)) == len(seeds)
    for seed in seeds:
        row = flat.distance_row(seed)
        assert row[seed] == 0
        assert all(distance >= 1 for node, distance in enumerate(row) if node != seed)
