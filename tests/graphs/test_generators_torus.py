"""Tests for the stretched toroidal grid construction (Section 3.1)."""

import pytest

from repro.graphs.generators.torus import (
    TorusParameters,
    open_stretched_torus,
    stretched_torus,
    torus_parameters_for_lemma_4_1,
    torus_parameters_for_theorem_3_12,
)
from repro.graphs.properties import diameter
from repro.graphs.traversal import bfs_distances, is_connected


def lemma_3_3_bound(params: TorusParameters, x, y) -> int:
    """Lemma 3.3: ``d(x, y) >= max_i min(|x_i - y_i|, 2 δ_i ℓ - |x_i - y_i|)``."""
    best = 0
    for axis in range(params.dimensions):
        modulus = params.modulus(axis)
        diff = abs(x[axis] - y[axis]) % modulus
        best = max(best, min(diff, modulus - diff))
    return best


class TestTorusParameters:
    def test_counts_match_paper_formulas(self):
        params = TorusParameters(stretch=2, deltas=(3, 4))
        assert params.num_intersection_vertices == 2 * 3 * 4
        # n = N (2^{d-1}(ℓ-1) + 1) with d=2, ℓ=2 -> N * 3.
        assert params.num_vertices == 24 * 3
        assert params.k_star == 2 * (3 - 1)
        assert params.diameter_lower_bound == 2 * 4

    def test_validation(self):
        with pytest.raises(ValueError):
            TorusParameters(stretch=0, deltas=(3, 3))
        with pytest.raises(ValueError):
            TorusParameters(stretch=2, deltas=(3,))
        with pytest.raises(ValueError):
            TorusParameters(stretch=2, deltas=(1, 3))

    def test_modulus(self):
        params = TorusParameters(stretch=3, deltas=(2, 5))
        assert params.modulus(0) == 2 * 2 * 3
        assert params.modulus(1) == 2 * 5 * 3


class TestStretchedTorus:
    @pytest.mark.parametrize(
        "stretch,deltas",
        [(1, (2, 2)), (2, (2, 3)), (2, (3, 5)), (3, (2, 2)), (2, (2, 2, 2))],
    )
    def test_vertex_count_matches_formula(self, stretch, deltas):
        params = TorusParameters(stretch=stretch, deltas=deltas)
        owned = stretched_torus(params)
        assert owned.graph.number_of_nodes() == params.num_vertices

    def test_connected(self):
        owned = stretched_torus(TorusParameters(stretch=2, deltas=(3, 4)))
        assert is_connected(owned.graph)

    def test_intersection_vertices_buy_nothing(self):
        params = TorusParameters(stretch=2, deltas=(3, 4))
        owned = stretched_torus(params)
        for vertex in owned.metadata["intersection_vertices"]:
            assert owned.ownership[vertex] == set()

    def test_non_intersection_vertices_buy_one_or_two_edges(self):
        params = TorusParameters(stretch=3, deltas=(2, 3))
        owned = stretched_torus(params)
        intersections = owned.metadata["intersection_vertices"]
        for vertex, targets in owned.ownership.items():
            if vertex in intersections:
                continue
            assert 1 <= len(targets) <= 2

    def test_intersection_degree_is_2_to_the_d(self):
        params = TorusParameters(stretch=2, deltas=(3, 4))
        owned = stretched_torus(params)
        for vertex in owned.metadata["intersection_vertices"]:
            assert owned.graph.degree(vertex) == 4

    def test_diameter_at_least_paper_bound(self):
        params = TorusParameters(stretch=2, deltas=(3, 6))
        owned = stretched_torus(params)
        assert diameter(owned.graph) >= params.diameter_lower_bound

    def test_lemma_3_3_distance_lower_bound(self):
        params = TorusParameters(stretch=2, deltas=(3, 4))
        owned = stretched_torus(params)
        graph = owned.graph
        origin = (0, 0)
        distances = bfs_distances(graph, origin)
        assert len(distances) == graph.number_of_nodes()
        for target, dist in distances.items():
            assert dist >= lemma_3_3_bound(params, origin, target)

    def test_total_edge_count(self):
        params = TorusParameters(stretch=2, deltas=(3, 4))
        owned = stretched_torus(params)
        # Every vertex owns at most 2 edges so m <= 2n (used by Theorem 3.12).
        assert owned.graph.number_of_edges() <= 2 * owned.graph.number_of_nodes()


class TestOpenTorus:
    def test_open_is_subgraph_sized(self):
        params = TorusParameters(stretch=2, deltas=(3, 3))
        closed = stretched_torus(params).graph
        open_variant = open_stretched_torus(params)
        assert open_variant.number_of_edges() < closed.number_of_edges()

    def test_open_distances_dominate_closed(self):
        # Lemma 3.5: without the wrap-around, coordinates differences are
        # genuine distance lower bounds.
        params = TorusParameters(stretch=2, deltas=(2, 3))
        open_variant = open_stretched_torus(params)
        origin = (0, 0)
        for target, dist in bfs_distances(open_variant, origin).items():
            assert dist >= max(abs(t - o) for t, o in zip(target, origin))


class TestParameterSelection:
    def test_theorem_3_12_parameters(self):
        params = torus_parameters_for_theorem_3_12(alpha=2, k=4, n_target=2000)
        assert params.stretch == 2
        assert params.deltas[0] == 3
        assert params.deltas[-1] >= params.deltas[0]
        assert params.num_vertices <= 2000

    def test_theorem_3_12_rejects_small_n(self):
        with pytest.raises(ValueError):
            torus_parameters_for_theorem_3_12(alpha=2, k=8, n_target=30)

    def test_theorem_3_12_rejects_bad_alpha(self):
        with pytest.raises(ValueError):
            torus_parameters_for_theorem_3_12(alpha=0.5, k=3, n_target=100)
        with pytest.raises(ValueError):
            torus_parameters_for_theorem_3_12(alpha=5, k=3, n_target=1000)

    def test_lemma_4_1_parameters(self):
        params = torus_parameters_for_lemma_4_1(k=3, n_target=300)
        assert params.stretch == 2
        assert params.dimensions == 2
        assert params.deltas[0] == 3
        assert params.num_vertices <= 300

    def test_lemma_4_1_rejects_small_n(self):
        with pytest.raises(ValueError):
            torus_parameters_for_lemma_4_1(k=10, n_target=50)
