"""Graph substrate used by the network-creation-game engine.

The package provides a small, dependency-light undirected graph type
(:class:`~repro.graphs.graph.Graph`) together with the traversal and
structural primitives the paper's analysis relies on (BFS distances,
eccentricities, diameter, girth) and the graph generators used both by the
lower-bound constructions of Sections 3-4 and by the experimental evaluation
of Section 5 (random trees, Erdős–Rényi graphs, the stretched toroidal grid,
high-girth regular graphs).

Everything is implemented from scratch on top of plain Python containers and
NumPy; :mod:`networkx` is only used as an optional interchange format
(:meth:`Graph.to_networkx` / :meth:`Graph.from_networkx`).
"""

from repro.graphs.graph import Graph
from repro.graphs.traversal import (
    bfs_distances,
    bfs_distances_within,
    connected_components,
    is_connected,
    shortest_path,
    all_pairs_distances,
    batched_bfs_distances,
    reduce_bfs_distances,
    distance_matrix,
)
from repro.graphs.properties import (
    eccentricity,
    eccentricities,
    diameter,
    radius,
    girth,
    degree_statistics,
    is_tree,
    density,
)
from repro.graphs.algorithms import (
    bfs_tree,
    bfs_layers,
    bridges,
    articulation_points,
    graph_center,
    graph_periphery,
    graph_median,
    betweenness_centrality,
    spanning_tree,
    is_bipartite,
    bipartition,
)
from repro.graphs.io import (
    write_edge_list,
    read_edge_list,
    write_graph_json,
    read_graph_json,
    write_owned_graph_json,
    read_owned_graph_json,
)

__all__ = [
    "Graph",
    "bfs_distances",
    "bfs_distances_within",
    "connected_components",
    "is_connected",
    "shortest_path",
    "all_pairs_distances",
    "batched_bfs_distances",
    "reduce_bfs_distances",
    "distance_matrix",
    "eccentricity",
    "eccentricities",
    "diameter",
    "radius",
    "girth",
    "degree_statistics",
    "is_tree",
    "density",
    "bfs_tree",
    "bfs_layers",
    "bridges",
    "articulation_points",
    "graph_center",
    "graph_periphery",
    "graph_median",
    "betweenness_centrality",
    "spanning_tree",
    "is_bipartite",
    "bipartition",
    "write_edge_list",
    "read_edge_list",
    "write_graph_json",
    "read_graph_json",
    "write_owned_graph_json",
    "read_owned_graph_json",
]
