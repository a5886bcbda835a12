"""Parity of the ``view`` kernel on every available backend.

Contract (see :mod:`repro.kernels`): over a CSR whose rows are sorted,
``view(indptr, indices, player, radius)`` returns the vertices within
``radius`` of ``player`` other than her, ascending (every other vertex when
``radius`` is None), their distances (``UNREACHABLE`` for the unreached),
and the CSR of the subgraph they induce in their positions, rows sorted.
Each backend is checked against a dict-BFS reference built from the
:class:`~repro.graphs.graph.Graph` and against the numpy reference.
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs.generators.erdos_renyi import gnp_random_graph
from repro.graphs.graph import Graph
from repro.graphs.traversal import bfs_distances, bfs_distances_within
from repro.kernels import available_backends, get_backend
from repro.kernels.common import UNREACHABLE

BACKENDS = available_backends()


def sorted_csr(graph: Graph) -> tuple[np.ndarray, np.ndarray, list]:
    """CSR over ``graph``'s nodes in insertion order, each row sorted."""
    order = graph.nodes()
    index = {node: i for i, node in enumerate(order)}
    rows = [sorted(index[v] for v in graph.neighbors(node)) for node in order]
    indptr = np.zeros(len(order) + 1, dtype=np.int64)
    np.cumsum([len(row) for row in rows], out=indptr[1:])
    indices = np.array([j for row in rows for j in row], dtype=np.int64)
    return indptr, indices, order


def dict_reference(graph: Graph, order: list, player: int, radius: int | None):
    """The kernel's four outputs, assembled from a dict BFS and the graph."""
    source = order[player]
    if radius is None:
        reached = bfs_distances(graph, source)
        visible = [i for i in range(len(order)) if i != player]
    else:
        reached = bfs_distances_within(graph, source, radius)
        visible = sorted(i for i, node in enumerate(order) if node in reached and i != player)
    position = {i: pos for pos, i in enumerate(visible)}
    dist = [reached.get(order[i], UNREACHABLE) for i in visible]
    indptr, indices = [0], []
    for i in visible:
        row = sorted(
            position[j]
            for j, node in enumerate(order)
            if j in position and graph.has_edge(order[i], node)
        )
        indices.extend(row)
        indptr.append(len(indices))
    return visible, dist, indptr, indices


def assert_matches(outputs, expected) -> None:
    nodes, dist, sub_indptr, sub_indices = outputs
    for array in outputs:
        assert array.dtype == np.int64
    assert nodes.tolist() == expected[0]
    assert dist.tolist() == expected[1]
    assert sub_indptr.tolist() == expected[2]
    assert sub_indices.tolist() == expected[3]


@st.composite
def view_workloads(draw, max_nodes: int = 14):
    """(graph, player, radius): G(n, p) graphs, often disconnected, with
    radii 0, 1, beyond the diameter and None."""
    n = draw(st.integers(min_value=1, max_value=max_nodes))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    p = draw(st.floats(min_value=0.0, max_value=0.6))
    graph = gnp_random_graph(n, p, random.Random(seed))
    player = draw(st.integers(min_value=0, max_value=n - 1))
    radius = draw(st.one_of(st.none(), st.integers(min_value=0, max_value=n)))
    return graph, player, radius


@pytest.mark.parametrize("backend_name", BACKENDS)
class TestViewKernelParity:
    @given(workload=view_workloads())
    @settings(max_examples=80, deadline=None)
    def test_matches_dict_reference(self, backend_name, workload):
        graph, player, radius = workload
        indptr, indices, order = sorted_csr(graph)
        outputs = get_backend(backend_name).view(indptr, indices, player, radius)
        assert_matches(outputs, dict_reference(graph, order, player, radius))

    @given(workload=view_workloads())
    @settings(max_examples=40, deadline=None)
    def test_matches_numpy_reference(self, backend_name, workload):
        graph, player, radius = workload
        indptr, indices, _ = sorted_csr(graph)
        outputs = get_backend(backend_name).view(indptr, indices, player, radius)
        reference = get_backend("numpy").view(indptr, indices, player, radius)
        for got, want in zip(outputs, reference):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("radius", [0, 1, 2, None])
    def test_degree_zero_player(self, backend_name, radius):
        # Player 2 has no edges; 0-1 and 3-4 are two other components.
        graph = Graph(nodes=range(5), edges=[(0, 1), (3, 4)])
        indptr, indices, order = sorted_csr(graph)
        nodes, dist, sub_indptr, sub_indices = get_backend(backend_name).view(
            indptr, indices, 2, radius
        )
        if radius is None:
            # Full knowledge lists every other node, none of them reached.
            assert nodes.tolist() == [0, 1, 3, 4]
            assert (dist == UNREACHABLE).all()
            assert sub_indptr.tolist() == [0, 1, 2, 3, 4]
            assert sub_indices.tolist() == [1, 0, 3, 2]
        else:
            assert nodes.size == 0 and dist.size == 0 and sub_indices.size == 0
            assert sub_indptr.tolist() == [0]

    @pytest.mark.parametrize("radius", [0, 1, None])
    def test_single_node_graph(self, backend_name, radius):
        indptr = np.zeros(2, dtype=np.int64)
        indices = np.zeros(0, dtype=np.int64)
        nodes, dist, sub_indptr, sub_indices = get_backend(backend_name).view(
            indptr, indices, 0, radius
        )
        assert nodes.size == dist.size == sub_indices.size == 0
        assert sub_indptr.tolist() == [0]

    @pytest.mark.parametrize("radius", [0, 1, 3, None])
    def test_path_radii(self, backend_name, radius):
        graph = Graph(nodes=range(6), edges=[(i, i + 1) for i in range(5)])
        indptr, indices, order = sorted_csr(graph)
        outputs = get_backend(backend_name).view(indptr, indices, 1, radius)
        assert_matches(outputs, dict_reference(graph, order, 1, radius))


def test_backends_agree_on_larger_instance():
    graph = gnp_random_graph(300, 0.02, random.Random(11))
    indptr, indices, _ = sorted_csr(graph)
    for player in range(0, 300, 7):
        for radius in (1, 2, 4, None):
            results = [
                get_backend(name).view(indptr, indices, player, radius)
                for name in BACKENDS
            ]
            for other in results[1:]:
                for got, want in zip(other, results[0]):
                    assert np.array_equal(got, want)
