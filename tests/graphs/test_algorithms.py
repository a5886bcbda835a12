"""Tests for the structural graph algorithms (bridges, centers, ...)."""

import random

import networkx as nx
import pytest

from repro.graphs.algorithms import (
    articulation_points,
    betweenness_centrality,
    bfs_layers,
    bfs_tree,
    biconnected_component_count,
    bipartition,
    bridges,
    degeneracy_ordering,
    graph_center,
    graph_median,
    graph_periphery,
    is_bipartite,
    spanning_tree,
)
from repro.graphs.generators.classic import (
    complete_graph,
    cycle_graph,
    path_graph,
    petersen_graph,
    star_graph,
)
from repro.graphs.generators.erdos_renyi import connected_gnp_graph
from repro.graphs.generators.trees import random_tree
from repro.graphs.graph import Graph
from repro.graphs.properties import is_tree
from repro.graphs.traversal import bfs_distances, is_connected


class TestBfsTree:
    def test_parent_of_root_is_none(self, path5):
        parent = bfs_tree(path5, 0)
        assert parent[0] is None

    def test_parent_distances_consistent(self, petersen):
        parent = bfs_tree(petersen, 0)
        dist = bfs_distances(petersen, 0)
        for child, par in parent.items():
            if par is not None:
                assert dist[child] == dist[par] + 1

    def test_covers_component_only(self):
        graph = Graph(nodes=[0, 1, 2, 3], edges=[(0, 1), (2, 3)])
        parent = bfs_tree(graph, 0)
        assert set(parent) == {0, 1}

    def test_missing_source_raises(self, path5):
        with pytest.raises(KeyError):
            bfs_tree(path5, 42)

    def test_tree_edge_count(self, petersen):
        parent = bfs_tree(petersen, 0)
        tree_edges = [(c, p) for c, p in parent.items() if p is not None]
        assert len(tree_edges) == petersen.number_of_nodes() - 1


class TestBfsLayers:
    def test_path_layers(self, path5):
        layers = bfs_layers(path5, 0)
        assert layers == [{0}, {1}, {2}, {3}, {4}]

    def test_layers_partition_component(self, petersen):
        layers = bfs_layers(petersen, 3)
        union = set().union(*layers)
        assert union == set(petersen.nodes())
        assert sum(len(layer) for layer in layers) == petersen.number_of_nodes()

    def test_star_layers(self):
        star = star_graph(7)
        layers = bfs_layers(star, 0)
        assert layers[0] == {0}
        assert layers[1] == set(range(1, 7))


class TestBridgesAndArticulation:
    def test_tree_all_edges_are_bridges(self):
        tree = random_tree(15, random.Random(3))
        assert len(bridges(tree)) == tree.number_of_edges()

    def test_cycle_has_no_bridges(self, cycle6):
        assert bridges(cycle6) == []
        assert articulation_points(cycle6) == set()

    def test_path_internal_nodes_are_articulation(self, path5):
        assert articulation_points(path5) == {1, 2, 3}

    def test_star_center_is_articulation(self):
        star = star_graph(6)
        assert articulation_points(star) == {0}

    def test_complete_graph_has_none(self):
        clique = complete_graph(6)
        assert bridges(clique) == []
        assert articulation_points(clique) == set()

    def test_barbell_bridge(self):
        # Two triangles joined by a single edge: that edge is the only bridge.
        graph = Graph(edges=[(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (2, 3)])
        found = {frozenset(edge) for edge in bridges(graph)}
        assert found == {frozenset((2, 3))}
        assert articulation_points(graph) == {2, 3}

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_matches_networkx_on_random_graphs(self, seed):
        graph = connected_gnp_graph(20, 0.15, random.Random(seed))
        nx_graph = graph.to_networkx()
        assert {frozenset(e) for e in bridges(graph)} == {
            frozenset(e) for e in nx.bridges(nx_graph)
        }
        assert articulation_points(graph) == set(nx.articulation_points(nx_graph))

    def test_disconnected_graph_supported(self):
        graph = Graph(edges=[(0, 1), (1, 2), (3, 4)])
        found = {frozenset(edge) for edge in bridges(graph)}
        assert frozenset((3, 4)) in found
        assert articulation_points(graph) == {1}


class TestBiconnectedComponents:
    def test_single_cycle_is_one_block(self, cycle6):
        assert biconnected_component_count(cycle6) == 1

    def test_tree_has_one_block_per_edge(self, path5):
        assert biconnected_component_count(path5) == path5.number_of_edges()

    @pytest.mark.parametrize("seed", [0, 5, 9])
    def test_matches_networkx(self, seed):
        graph = connected_gnp_graph(18, 0.15, random.Random(seed))
        expected = sum(1 for _ in nx.biconnected_components(graph.to_networkx()))
        assert biconnected_component_count(graph) == expected


class TestCentrality:
    def test_path_center_and_periphery(self, path5):
        assert graph_center(path5) == {2}
        assert graph_periphery(path5) == {0, 4}

    def test_star_center_is_hub(self):
        star = star_graph(9)
        assert graph_center(star) == {0}
        assert graph_periphery(star) == set(range(1, 9))

    def test_median_of_path(self, path5):
        assert graph_median(path5) == {2}

    def test_median_of_star_is_center(self):
        star = star_graph(9)
        assert graph_median(star) == {0}

    def test_vertex_transitive_graph_everything_central(self, cycle6):
        assert graph_center(cycle6) == set(cycle6.nodes())
        assert graph_median(cycle6) == set(cycle6.nodes())

    def test_disconnected_raises(self):
        graph = Graph(nodes=[0, 1, 2], edges=[(0, 1)])
        with pytest.raises(ValueError):
            graph_center(graph)
        with pytest.raises(ValueError):
            graph_periphery(graph)
        with pytest.raises(ValueError):
            graph_median(graph)

    def test_empty_graph(self):
        assert graph_center(Graph()) == set()
        assert graph_periphery(Graph()) == set()
        assert graph_median(Graph()) == set()


class TestBetweenness:
    def test_star_hub_has_all_betweenness(self):
        star = star_graph(7)
        centrality = betweenness_centrality(star)
        assert centrality[0] == pytest.approx(1.0)
        for leaf in range(1, 7):
            assert centrality[leaf] == pytest.approx(0.0)

    def test_path_midpoint_dominates(self, path5):
        centrality = betweenness_centrality(path5)
        assert centrality[2] == max(centrality.values())
        assert centrality[0] == pytest.approx(0.0)

    @pytest.mark.parametrize("seed", [1, 2, 7])
    def test_matches_networkx(self, seed):
        graph = connected_gnp_graph(14, 0.25, random.Random(seed))
        ours = betweenness_centrality(graph)
        theirs = nx.betweenness_centrality(graph.to_networkx())
        for node in graph.nodes():
            assert ours[node] == pytest.approx(theirs[node], abs=1e-9)

    def test_unnormalized(self, path5):
        centrality = betweenness_centrality(path5, normalized=False)
        # Middle of a path P5: pairs (0,3),(0,4),(1,3),(1,4) pass through 2
        # plus (0,?) ... exact value is 4 for node 2.
        assert centrality[2] == pytest.approx(4.0)


class TestSpanningTree:
    def test_spanning_tree_of_connected_graph(self, petersen):
        tree = spanning_tree(petersen)
        assert is_tree(tree)
        assert set(tree.nodes()) == set(petersen.nodes())
        for u, v in tree.edges():
            assert petersen.has_edge(u, v)

    def test_disconnected_raises(self):
        graph = Graph(nodes=[0, 1, 2], edges=[(0, 1)])
        with pytest.raises(ValueError):
            spanning_tree(graph)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            spanning_tree(Graph())

    def test_tree_is_its_own_spanning_tree(self):
        tree = random_tree(10, random.Random(0))
        spanning = spanning_tree(tree)
        assert {frozenset(e) for e in spanning.edges()} == {frozenset(e) for e in tree.edges()}


class TestBipartite:
    def test_even_cycle_bipartite(self, cycle6):
        assert is_bipartite(cycle6)
        side_a, side_b = bipartition(cycle6)
        assert side_a | side_b == set(cycle6.nodes())
        assert side_a & side_b == set()
        for u, v in cycle6.edges():
            assert (u in side_a) != (v in side_a)

    def test_odd_cycle_not_bipartite(self):
        assert not is_bipartite(cycle_graph(5))
        assert bipartition(cycle_graph(5)) is None

    def test_trees_are_bipartite(self):
        assert is_bipartite(random_tree(20, random.Random(1)))

    def test_petersen_not_bipartite(self, petersen):
        assert not is_bipartite(petersen)

    def test_disconnected_with_isolated_nodes(self):
        graph = Graph(nodes=[0, 1, 2, 3], edges=[(0, 1)])
        assert is_bipartite(graph)
        side_a, side_b = bipartition(graph)
        assert side_a | side_b == {0, 1, 2, 3}

    @pytest.mark.parametrize("seed", [0, 3, 8])
    def test_matches_networkx(self, seed):
        graph = connected_gnp_graph(15, 0.2, random.Random(seed))
        assert is_bipartite(graph) == nx.is_bipartite(graph.to_networkx())


class TestCoreAndDegeneracy:
    def test_degeneracy_ordering_is_permutation(self, petersen):
        order = degeneracy_ordering(petersen)
        assert sorted(order, key=repr) == sorted(petersen.nodes(), key=repr)

    def test_tree_degeneracy_one(self):
        tree = random_tree(12, random.Random(5))
        order = degeneracy_ordering(tree)
        # In a degeneracy ordering of a tree, each removed node has degree <= 1
        # among the not-yet-removed nodes.
        remaining = tree.copy()
        for node in order:
            assert remaining.degree(node) <= 1
            remaining.remove_node(node)
