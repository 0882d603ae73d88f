"""Golden pin of ``partition_graph``'s exact output.

The figure goldens pin partitions only indirectly; this pins them directly.
Each digest is a sha256 over ``list(assignment.items())`` -- the dict's
insertion order included, because downstream code (part sizes, the quotient
graph, Algorithm 2's part order) iterates it -- for every ``k`` in 2..6,
``imbalance`` in {0.05, 0.30} and ``seed`` in 0..4.  The values were recorded
with the dict-based partitioner that the flat-array kernel replaced, so a
mismatch means the kernel changed a partition, an RNG draw or a tie-break.

``qft_n63`` and the string-labelled ``ising_n66`` are above the coarsening
target (60 nodes), so they pin heavy-edge matching and contraction as well.
"""

from __future__ import annotations

import hashlib

import networkx as nx
import pytest

from repro.circuits import InteractionGraph
from repro.circuits.library import get_circuit
from repro.partition import partition_graph

GOLDEN = {
    "ghz_n9": "bcc7e8d1f1bc27e3f9d189312621af85bd24ea50d4af05153c00cb0f514976d5",
    "ghz_n24": "6ee274823f60bf8db5e45f59a348eebadf83494e243e2e01b51af2288da3ddbc",
    "qft_n16": "dbc8c1d5ecd9be2dfbb3a79a41b41604515eb8e2be70b4476d09f5d61697913c",
    "vqe_uccsd_n28": "5ce12fb9c9f2f85f55649b8d79b8ac4b1242716afe136213355a4dcde5e6becb",
    "qugan_n39": "e17596b5d534ebaadd25430de6b0ee313c03052531125a9c9a1832db492b40e9",
    "multiplier_n45": "3c85d57eaff52d0b2964cf1b6736fc6d9bf927c43fe843853be7ec188657ff69",
    "qft_n63": "5cd8b5f4f8d2a64a001f808dfcc8939a905ef28ee688637ada220f3a595df3b3",
    "ising_n66/str": "b9754b5760f26040e0d05daf13b147da6ed44aeaae1b83c54c67220e9b1ebbbe",
}


def interaction_nx(name: str) -> nx.Graph:
    return InteractionGraph.from_circuit(get_circuit(name)).to_networkx()


def golden_graph(key: str) -> nx.Graph:
    name, _, labels = key.partition("/")
    graph = interaction_nx(name)
    if labels == "str":
        graph = nx.relabel_nodes(graph, {q: "q%03d" % q for q in graph.nodes()})
    return graph


def grid_digest(graph: nx.Graph) -> str:
    digest = hashlib.sha256()
    for num_parts in range(2, 7):
        for imbalance in (0.05, 0.30):
            for seed in range(5):
                assignment = partition_graph(
                    graph, num_parts, imbalance=imbalance, seed=seed
                )
                digest.update(repr(list(assignment.items())).encode())
    return digest.hexdigest()


@pytest.mark.parametrize("key", sorted(GOLDEN))
def test_partition_graph_golden(key):
    assert grid_digest(golden_graph(key)) == GOLDEN[key]


def labelled_graph(name: str, label) -> nx.Graph:
    """The circuit's interaction graph, built the way InteractionGraph builds it."""
    circuit = get_circuit(name)
    graph = nx.Graph()
    graph.add_nodes_from(label(q) for q in range(circuit.num_qubits))
    for (a, b), weight in circuit.two_qubit_interactions().items():
        graph.add_edge(label(a), label(b), weight=weight)
    return graph


@pytest.mark.parametrize("name", ["ghz_n9", "qft_n16", "vqe_uccsd_n28"])
def test_partition_is_label_invariant(name):
    """Renaming the nodes renames the partition and changes nothing else.

    Ties are broken by node position, never by label hashes, so a
    string-labelled graph partitions the same way under every hash seed.
    """
    ints = labelled_graph(name, int)
    strs = labelled_graph(name, "q{:03d}".format)
    for num_parts in range(2, 7):
        for seed in range(3):
            expected = [
                ("q{:03d}".format(q), part)
                for q, part in partition_graph(
                    ints, num_parts, imbalance=0.05, seed=seed
                ).items()
            ]
            got = partition_graph(strs, num_parts, imbalance=0.05, seed=seed)
            assert list(got.items()) == expected
