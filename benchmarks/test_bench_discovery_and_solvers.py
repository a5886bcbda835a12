"""Micro-benchmarks for the discovery view models and graph primitives.

These are the primitives the extension studies lean on: building a
traceroute / union-of-balls view for every player, bridges and betweenness.
The assertions pin the structural guarantees (traceroute reveals every
node, every tree edge is a bridge) rather than absolute runtimes.
"""

from repro.core.strategies import StrategyProfile
from repro.discovery.models import TracerouteModel, UnionOfBallsModel
from repro.graphs.algorithms import betweenness_centrality, bridges
from repro.graphs.generators.erdos_renyi import owned_connected_gnp_graph
from repro.graphs.generators.trees import random_owned_tree


class TestDiscoveryViews:
    def test_bench_traceroute_views(self, benchmark):
        profile = StrategyProfile.from_owned_graph(owned_connected_gnp_graph(80, 0.08, seed=1))
        model = TracerouteModel()

        def observe_all():
            return [model.observe(profile, player).size for player in profile]

        sizes = benchmark(observe_all)
        assert all(size == 80 for size in sizes)

    def test_bench_union_of_balls_views(self, benchmark):
        profile = StrategyProfile.from_owned_graph(owned_connected_gnp_graph(80, 0.08, seed=2))
        model = UnionOfBallsModel(radius=2, include_neighbors=True)

        def observe_all():
            return [model.observe(profile, player).size for player in profile]

        sizes = benchmark(observe_all)
        assert min(sizes) >= 3


class TestGraphPrimitives:
    def test_bench_bridges(self, benchmark):
        owned = random_owned_tree(400, seed=6)
        found = benchmark(bridges, owned.graph)
        assert len(found) == owned.graph.number_of_edges()

    def test_bench_betweenness(self, benchmark):
        owned = owned_connected_gnp_graph(100, 0.06, seed=7)
        centrality = benchmark(betweenness_centrality, owned.graph)
        assert len(centrality) == 100
