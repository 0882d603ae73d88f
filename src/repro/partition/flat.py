"""Flat-array form of a weighted graph, the partitioner's working representation.

The multilevel partitioner touches every node's neighbourhood many times per
call (seed spreading, region growing, refinement passes), so it runs on plain
per-node lists instead of networkx's nested dict views.  Node ``u`` is the
``u``-th node of ``graph.nodes()``; its neighbour positions and edge weights
are listed in ``graph[node]`` order, self-loops included.  Keeping networkx's
iteration order everywhere keeps every float sum, RNG draw and ``max``/
``sorted`` tie-break of the partitioner exactly as it was on the dict form.

Hop-distance rows are built lazily and kept on the object, so a
:class:`FlatGraph` that outlives one call (the placement context keeps one per
circuit) serves them to every later call.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Hashable, Iterator, List, Sequence, Tuple, Union

import networkx as nx


class FlatGraph:
    """Node weights, adjacency lists and weighted degrees by node position."""

    def __init__(
        self,
        labels: Sequence[Hashable],
        weight: List[float],
        nbrs: List[Tuple[int, ...]],
        wts: List[Tuple[float, ...]],
    ) -> None:
        self.labels = labels
        self.weight = weight
        self.nbrs = nbrs
        self.wts = wts
        self.degree = [sum(row) for row in wts]
        self._rows: Dict[int, List[int]] = {}

    @classmethod
    def of(cls, graph: Union[nx.Graph, FlatGraph]) -> FlatGraph:
        """``graph`` itself if it is flat already, else its flat form."""
        if isinstance(graph, FlatGraph):
            return graph
        labels = list(graph.nodes())
        index = {label: position for position, label in enumerate(labels)}
        adjacency = graph.adj
        return cls(
            labels,
            [float(graph.nodes[label].get("weight", 1.0)) for label in labels],
            [tuple(index[v] for v in adjacency[label]) for label in labels],
            [
                tuple(float(d.get("weight", 1.0)) for d in adjacency[label].values())
                for label in labels
            ],
        )

    def __len__(self) -> int:
        return len(self.weight)

    def index(self) -> Dict[Hashable, int]:
        """Label -> node position."""
        return {label: position for position, label in enumerate(self.labels)}

    def edges(self) -> Iterator[Tuple[int, int, float]]:
        """Each edge once, as ``(u, v, weight)`` in ``nx.Graph.edges()`` order."""
        for u, (row, weights) in enumerate(zip(self.nbrs, self.wts)):
            for v, w in zip(row, weights):
                if v >= u:
                    yield u, v, w

    def distance_row(self, source: int) -> List[int]:
        """Hop distance from ``source`` to every node; unreachable nodes get ``n``.

        Built on first use and cached; callers must not mutate the row.
        """
        row = self._rows.get(source)
        if row is None:
            n = len(self.weight)
            row = [n] * n
            row[source] = 0
            queue = deque([source])
            nbrs = self.nbrs
            while queue:
                u = queue.popleft()
                step = row[u] + 1
                for v in nbrs[u]:
                    if row[v] == n:
                        row[v] = step
                        queue.append(v)
            self._rows[source] = row
        return row
