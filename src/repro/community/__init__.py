"""Community-detection substrate: modularity, Louvain, CNM, QPU-set selection."""

from .modularity import (
    modularity,
    modularity_from_assignment,
    total_edge_weight,
    weighted_degrees,
)
from .louvain import (
    best_partition,
    louvain_communities,
    louvain_graph,
    louvain_modularity,
)
from .greedy import greedy_modularity_communities
from .detection import (
    CommunityError,
    adjacency_center,
    community_capacity,
    detect_communities,
    expand_community,
    graph_center,
    select_qpu_community,
)

__all__ = [
    "CommunityError",
    "adjacency_center",
    "best_partition",
    "community_capacity",
    "detect_communities",
    "expand_community",
    "graph_center",
    "greedy_modularity_communities",
    "louvain_communities",
    "louvain_graph",
    "louvain_modularity",
    "modularity",
    "modularity_from_assignment",
    "select_qpu_community",
    "total_edge_weight",
    "weighted_degrees",
]
