"""CloudQC's fail-fast prefilters reject only candidates that cannot succeed.

``CloudQCPlacement`` skips an (imbalance, k) candidate without partitioning
when ``k`` is below :func:`fewest_covering_qpus`, and drops a partition before
QPU selection when :func:`parts_fit` fails.  Both are claimed exact: the
property tests below run the stages the prefilter skipped --
``partition_graph`` -> ``community_qpu_set``/``bfs_qpu_set`` ->
``map_partitions_to_qpus`` -- on every rejected candidate and require them to
fail, whatever QPU set selection picks.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from repro.circuits import InteractionGraph
from repro.circuits.library import build
from repro.cloud import CloudTopology, QuantumCloud
from repro.community import CommunityError
from repro.partition import partition_graph
from repro.placement import (
    CloudQCPlacement,
    MappingError,
    bfs_qpu_set,
    community_qpu_set,
    map_partitions_to_qpus,
)
from repro.placement.cloudqc import fewest_covering_qpus, parts_fit

#: Library families that build any size from 4 qubits up.
FAMILIES = ["ghz", "qft", "ising", "qaoa", "vqe_uccsd", "bv", "hea", "qv"]


def fragmented_cloud(free, capacity: int) -> QuantumCloud:
    """A line cloud whose QPUs have exactly ``free`` computing qubits free."""
    cloud = QuantumCloud(
        CloudTopology.line(len(free)),
        computing_qubits_per_qpu=capacity,
        communication_qubits_per_qpu=2,
    )
    held = [qpu for qpu, qubits in enumerate(free) for _ in range(capacity - qubits)]
    if held:
        cloud.admit("tenant", dict(enumerate(held)))
    return cloud


@st.composite
def candidates(draw):
    num_qpus = draw(st.integers(min_value=2, max_value=7))
    capacity = draw(st.integers(min_value=2, max_value=8))
    free = draw(
        st.lists(
            st.integers(min_value=0, max_value=capacity),
            min_size=num_qpus,
            max_size=num_qpus,
        )
    )
    # Circuits that nearly fill the free qubits, split into about as many
    # parts as there are QPUs: the region where candidates fail.
    total = max(4, sum(free))
    size = draw(st.integers(min_value=max(4, total - 4), max_value=total))
    circuit = build(draw(st.sampled_from(FAMILIES)), size)
    num_parts = draw(st.integers(min_value=2, max_value=min(size, num_qpus + 1)))
    imbalance = draw(st.sampled_from([0.05, 0.15, 0.30, 0.50]))
    seed = draw(st.integers(min_value=0, max_value=1000))
    return free, capacity, circuit, num_parts, imbalance, seed


def assert_stages_fail(cloud, circuit, assignment, seed):
    """Every way the skipped stages could run ends in a typed failure."""
    part_sizes = {}
    for part in assignment.values():
        part_sizes[part] = part_sizes.get(part, 0) + 1
    quotient = InteractionGraph.from_circuit(circuit).quotient_graph(assignment)
    size = circuit.num_qubits
    # The mapping's last pool is every QPU, so even the whole cloud fails.
    with pytest.raises(MappingError):
        map_partitions_to_qpus(part_sizes, quotient, cloud, cloud.qpu_ids)
    for select in (
        lambda: community_qpu_set(cloud, size, min_qpus=len(part_sizes), seed=seed),
        lambda: bfs_qpu_set(cloud, size, min_qpus=len(part_sizes)),
    ):
        with pytest.raises((MappingError, CommunityError)):
            map_partitions_to_qpus(part_sizes, quotient, cloud, select())


@settings(
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
@given(candidates())
def test_prefilters_reject_only_infeasible_candidates(candidate):
    free, capacity, circuit, num_parts, imbalance, seed = candidate
    size = circuit.num_qubits
    if sum(free) < size:
        return  # place() rejects the circuit before the candidate grid
    cloud = fragmented_cloud(free, capacity)
    capacities = sorted(free, reverse=True)
    graph = InteractionGraph.from_circuit(circuit).to_networkx()
    assignment = partition_graph(graph, num_parts, imbalance=imbalance, seed=seed)
    parts = {}
    for part in assignment.values():
        parts[part] = parts.get(part, 0) + 1
    if num_parts < fewest_covering_qpus(capacities, size):
        event("rejected: too few parts")
        assert_stages_fail(cloud, circuit, assignment, seed)
    elif not parts_fit(parts.values(), capacities):
        event("rejected: part sizes")
        assert_stages_fail(cloud, circuit, assignment, seed)


def test_prefilter_skips_the_filler_candidates_that_fail(monkeypatch):
    """The anchor/burst filler: 9 qubits on free map (1,1,1,2,2,2).

    The 9 qubits need all 6 QPUs, so of the grid's k in {5, 6} only k = 6
    is partitioned.
    """
    cloud = fragmented_cloud([1, 1, 1, 2, 2, 2], 10)
    circuit = build("ghz", 9)
    placer = CloudQCPlacement(imbalance_factors=(0.05, 0.30), max_extra_parts=2)
    assert placer._candidate_part_counts(9, cloud) == [5, 6]
    assert fewest_covering_qpus([2, 2, 2, 1, 1, 1], 9) == 6

    from repro.placement import context as context_module

    calls = []
    real_partition = context_module.partition_graph

    def spy(graph, num_parts, **kwargs):
        calls.append(num_parts)
        return real_partition(graph, num_parts, **kwargs)

    monkeypatch.setattr(context_module, "partition_graph", spy)
    with pytest.raises(MappingError):
        placer.place(circuit, cloud, seed=3)
    assert calls == [6, 6]


def test_parts_fit_checks_every_size_threshold():
    # Two 3-qubit parts need two QPUs with >= 3 free; only one has them.
    assert not parts_fit([3, 3, 1], [5, 2, 2, 2])
    assert parts_fit([3, 2, 1], [5, 2, 2, 2])
    # Total capacity is enough but no QPU takes the 4-qubit part.
    assert not parts_fit([4, 1], [3, 3])
    assert parts_fit([], [1])


def test_fewest_covering_qpus():
    assert fewest_covering_qpus([5, 3, 1], 5) == 1
    assert fewest_covering_qpus([5, 3, 1], 6) == 2
    assert fewest_covering_qpus([5, 3, 1], 9) == 3
    assert fewest_covering_qpus([5, 3, 1], 10) == 4  # cannot be covered
