"""Tests for BFS traversals and distance computations."""

import numpy as np
import pytest

from repro.graphs.graph import Graph
from repro.graphs.traversal import (
    all_pairs_distances,
    batched_bfs_distances,
    bfs_distances,
    bfs_distances_within,
    connected_components,
    distance_matrix,
    is_connected,
    shortest_path,
)
from repro.kernels.common import UNREACHABLE


class TestBfsDistances:
    def test_path_distances(self, path5):
        dist = bfs_distances(path5, 0)
        assert dist == {0: 0, 1: 1, 2: 2, 3: 3, 4: 4}

    def test_cycle_distances(self, cycle6):
        dist = bfs_distances(cycle6, 0)
        assert dist[3] == 3
        assert dist[5] == 1
        assert max(dist.values()) == 3

    def test_unreachable_nodes_absent(self):
        graph = Graph(nodes=[0, 1, 2], edges=[(0, 1)])
        dist = bfs_distances(graph, 0)
        assert 2 not in dist
        assert dist == {0: 0, 1: 1}

    def test_missing_source_raises(self, path5):
        with pytest.raises(KeyError):
            bfs_distances(path5, 99)


class TestBoundedBfs:
    def test_truncation(self, path5):
        dist = bfs_distances_within(path5, 0, 2)
        assert dist == {0: 0, 1: 1, 2: 2}

    def test_radius_zero(self, path5):
        assert bfs_distances_within(path5, 3, 0) == {3: 0}

    def test_negative_radius_raises(self, path5):
        with pytest.raises(ValueError):
            bfs_distances_within(path5, 0, -1)

    def test_matches_full_bfs_when_radius_large(self, petersen):
        full = bfs_distances(petersen, 0)
        bounded = bfs_distances_within(petersen, 0, 10)
        assert bounded == full


class TestShortestPath:
    def test_path_endpoints(self, path5):
        assert shortest_path(path5, 0, 4) == [0, 1, 2, 3, 4]

    def test_same_node(self, path5):
        assert shortest_path(path5, 2, 2) == [2]

    def test_disconnected_returns_none(self):
        graph = Graph(nodes=[0, 1], edges=[])
        assert shortest_path(graph, 0, 1) is None

    def test_length_matches_distance(self, petersen):
        dist = bfs_distances(petersen, 0)
        for target in petersen:
            path = shortest_path(petersen, 0, target)
            assert path is not None
            assert len(path) - 1 == dist[target]

    def test_missing_node_raises(self, path5):
        with pytest.raises(KeyError):
            shortest_path(path5, 0, 99)


class TestConnectivity:
    def test_connected_graph(self, cycle6):
        assert is_connected(cycle6)
        assert len(connected_components(cycle6)) == 1

    def test_disconnected_graph(self):
        graph = Graph(edges=[(0, 1), (2, 3)])
        assert not is_connected(graph)
        components = connected_components(graph)
        assert sorted(map(sorted, components)) == [[0, 1], [2, 3]]

    def test_empty_graph_not_connected(self):
        assert not is_connected(Graph())

    def test_single_node_connected(self):
        assert is_connected(Graph(nodes=[0]))


class TestDistanceMatrix:
    def test_matches_dict_of_dicts(self, petersen):
        matrix, order = distance_matrix(petersen)
        table = all_pairs_distances(petersen)
        for i, u in enumerate(order):
            for j, v in enumerate(order):
                assert matrix[i, j] == table[u][v]

    def test_symmetry(self, cycle6):
        matrix, _ = distance_matrix(cycle6)
        assert np.array_equal(matrix, matrix.T)

    def test_unreachable_marker(self):
        graph = Graph(nodes=[0, 1, 2], edges=[(0, 1)])
        matrix, order = distance_matrix(graph)
        i, j = order.index(0), order.index(2)
        assert matrix[i, j] == UNREACHABLE

    def test_diagonal_zero(self, path5):
        matrix, _ = distance_matrix(path5)
        assert np.all(np.diag(matrix) == 0)

    def test_empty_graph(self):
        matrix, order = distance_matrix(Graph())
        assert matrix.shape == (0, 0)
        assert order == []

    def test_explicit_node_order(self, path5):
        matrix, order = distance_matrix(path5, nodes=[4, 0])
        assert order == [4, 0]
        # Restricting the node set also restricts the paths considered: 4 and
        # 0 are not adjacent in the induced subgraph {0, 4}.
        assert matrix[0, 1] == UNREACHABLE


class TestBatchedBfs:
    def test_subset_of_sources_matches_dict_bfs(self, petersen):
        indptr, indices, order = petersen.to_csr_arrays()
        sources = [0, 3, 7]
        dist = batched_bfs_distances(indptr, indices, sources)
        for row, source in enumerate(sources):
            expected = bfs_distances(petersen, order[source])
            for j, node in enumerate(order):
                assert dist[row, j] == expected[node]

    def test_radius_truncation_matches_bounded_bfs(self, petersen):
        indptr, indices, order = petersen.to_csr_arrays()
        dist = batched_bfs_distances(indptr, indices, range(len(order)), radius=1)
        for row, _ in enumerate(order):
            expected = bfs_distances_within(petersen, order[row], 1)
            reached = {order[j] for j in np.flatnonzero(dist[row] != UNREACHABLE)}
            assert reached == set(expected)

    def test_unreachable_marker(self):
        graph = Graph(nodes=[0, 1, 2], edges=[(0, 1)])
        indptr, indices, order = graph.to_csr_arrays()
        dist = batched_bfs_distances(indptr, indices, [order.index(0)])
        assert dist[0, order.index(2)] == UNREACHABLE

    def test_empty_sources(self, path5):
        indptr, indices, _ = path5.to_csr_arrays()
        dist = batched_bfs_distances(indptr, indices, [])
        assert dist.shape == (0, 5)

    def test_out_of_range_source_rejected(self, path5):
        indptr, indices, _ = path5.to_csr_arrays()
        with pytest.raises(IndexError):
            batched_bfs_distances(indptr, indices, [99])

    def test_radius_zero(self, path5):
        indptr, indices, order = path5.to_csr_arrays()
        dist = batched_bfs_distances(indptr, indices, [2], radius=0)
        assert (dist != UNREACHABLE).sum() == 1
        assert dist[0, 2] == 0

    def test_none_sources_is_all_pairs(self, petersen):
        indptr, indices, order = petersen.to_csr_arrays()
        every = batched_bfs_distances(indptr, indices, None, radius=2)
        assert np.array_equal(
            every, batched_bfs_distances(indptr, indices, range(len(order)), radius=2)
        )
