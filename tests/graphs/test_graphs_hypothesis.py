"""Property-based tests for the graph substrate (hypothesis)."""

import math
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs.generators.erdos_renyi import gnp_random_graph
from repro.graphs.generators.trees import prufer_to_tree, random_tree
from repro.graphs.graph import Graph
from repro.graphs.properties import diameter, eccentricities, girth, is_tree, radius
from repro.graphs.traversal import (
    bfs_distances,
    bfs_distances_within,
    connected_components,
    distance_matrix,
    is_connected,
    shortest_path,
)
from repro.kernels.common import UNREACHABLE


@st.composite
def random_graphs(draw, max_nodes: int = 12):
    """Arbitrary (possibly disconnected) simple graphs on 1..max_nodes nodes."""
    n = draw(st.integers(min_value=1, max_value=max_nodes))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    p = draw(st.floats(min_value=0.0, max_value=0.7))
    return gnp_random_graph(n, p, random.Random(seed))


@st.composite
def connected_graphs(draw, max_nodes: int = 12):
    """Connected graphs built as a random tree plus random extra edges."""
    n = draw(st.integers(min_value=2, max_value=max_nodes))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    rng = random.Random(seed)
    graph = random_tree(n, rng)
    extra = draw(st.integers(min_value=0, max_value=n))
    for _ in range(extra):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            graph.add_edge(u, v)
    return graph


class TestDistanceProperties:
    @given(connected_graphs())
    @settings(max_examples=40, deadline=None)
    def test_triangle_inequality(self, graph):
        nodes = graph.nodes()
        rng = random.Random(0)
        dist = {node: bfs_distances(graph, node) for node in nodes}
        for _ in range(10):
            a, b, c = (rng.choice(nodes) for _ in range(3))
            assert dist[a][c] <= dist[a][b] + dist[b][c]

    @given(connected_graphs())
    @settings(max_examples=40, deadline=None)
    def test_distance_symmetry(self, graph):
        for u in graph:
            du = bfs_distances(graph, u)
            for v, d in du.items():
                assert bfs_distances(graph, v)[u] == d

    @given(connected_graphs())
    @settings(max_examples=40, deadline=None)
    def test_matrix_agrees_with_bfs(self, graph):
        matrix, order = distance_matrix(graph)
        index = {node: i for i, node in enumerate(order)}
        for u in graph:
            for v, d in bfs_distances(graph, u).items():
                assert matrix[index[u], index[v]] == d

    @given(random_graphs())
    @settings(max_examples=40, deadline=None)
    def test_unreachable_consistency(self, graph):
        matrix, order = distance_matrix(graph)
        components = connected_components(graph)
        comp_of = {node: i for i, comp in enumerate(components) for node in comp}
        index = {node: i for i, node in enumerate(order)}
        for u in graph:
            for v in graph:
                same = comp_of[u] == comp_of[v]
                assert (matrix[index[u], index[v]] != UNREACHABLE) == same

    @given(connected_graphs(), st.integers(min_value=0, max_value=6))
    @settings(max_examples=40, deadline=None)
    def test_bounded_bfs_is_restriction(self, graph, radius_value):
        for source in list(graph)[:3]:
            full = bfs_distances(graph, source)
            bounded = bfs_distances_within(graph, source, radius_value)
            assert bounded == {k: v for k, v in full.items() if v <= radius_value}

    @given(connected_graphs())
    @settings(max_examples=30, deadline=None)
    def test_shortest_path_is_valid_walk(self, graph):
        nodes = graph.nodes()
        source, target = nodes[0], nodes[-1]
        path = shortest_path(graph, source, target)
        assert path is not None
        assert path[0] == source and path[-1] == target
        for a, b in zip(path, path[1:]):
            assert graph.has_edge(a, b)
        assert len(path) - 1 == bfs_distances(graph, source)[target]


class TestStructuralProperties:
    @given(connected_graphs())
    @settings(max_examples=40, deadline=None)
    def test_radius_diameter_relation(self, graph):
        r, d = radius(graph), diameter(graph)
        assert r <= d <= 2 * r

    @given(connected_graphs())
    @settings(max_examples=40, deadline=None)
    def test_eccentricity_bounds(self, graph):
        n = graph.number_of_nodes()
        for value in eccentricities(graph).values():
            assert 0 <= value <= n - 1

    @given(st.integers(min_value=2, max_value=40), st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=40, deadline=None)
    def test_random_tree_invariants(self, n, seed):
        tree = random_tree(n, random.Random(seed))
        assert is_tree(tree)
        assert tree.number_of_edges() == n - 1
        assert is_connected(tree)
        assert girth(tree) == math.inf

    @given(st.lists(st.integers(min_value=0, max_value=7), min_size=0, max_size=6))
    @settings(max_examples=50, deadline=None)
    def test_prufer_always_yields_tree(self, sequence):
        n = len(sequence) + 2
        bounded = [value % n for value in sequence]
        assert is_tree(prufer_to_tree(bounded))

    @given(random_graphs())
    @settings(max_examples=40, deadline=None)
    def test_components_partition_nodes(self, graph):
        components = connected_components(graph)
        seen: set = set()
        for comp in components:
            assert not (seen & comp)
            seen |= comp
        assert seen == set(graph.nodes())


class TestCopySemantics:
    @given(random_graphs())
    @settings(max_examples=30, deadline=None)
    def test_copy_equals_original(self, graph):
        assert graph.copy() == graph

    @given(random_graphs())
    @settings(max_examples=30, deadline=None)
    def test_induced_subgraph_of_all_nodes_is_identity(self, graph):
        assert graph.induced_subgraph(graph.nodes()) == graph

    @given(connected_graphs())
    @settings(max_examples=30, deadline=None)
    def test_csr_edge_count(self, graph):
        indptr, indices, nodes = graph.to_csr_arrays()
        assert int(indptr[-1]) == 2 * graph.number_of_edges()
        assert len(indices) == int(indptr[-1])
