"""Tests for the social optimum benchmarks, PoA helpers and profile metrics."""

import math

import pytest

from repro.core.games import MaxNCG, SumNCG, UsageKind
from repro.core.metrics import compute_profile_metrics
from repro.core.social import (
    clique_social_cost,
    exact_social_optimum,
    graph_social_cost,
    price_of_anarchy_ratio,
    social_optimum,
    star_social_cost,
)
from repro.core.strategies import StrategyProfile
from repro.graphs.generators.classic import complete_graph, owned_cycle, owned_star, star_graph
from repro.graphs.graph import Graph


class TestClosedForms:
    def test_star_cost_max(self):
        assert star_social_cost(6, 2.0, UsageKind.MAX) == 2 * 5 + 1 + 2 * 5

    def test_star_cost_sum(self):
        n = 6
        expected = 2 * (n - 1) + (n - 1) + (n - 1) * (2 * n - 3)
        assert star_social_cost(n, 2.0, UsageKind.SUM) == expected

    def test_clique_cost(self):
        assert clique_social_cost(5, 2.0, UsageKind.MAX) == 2 * 10 + 5
        assert clique_social_cost(5, 2.0, UsageKind.SUM) == 2 * 10 + 20

    def test_single_player(self):
        assert star_social_cost(1, 3.0, UsageKind.MAX) == 0
        assert clique_social_cost(1, 3.0, UsageKind.SUM) == 0

    def test_invalid_n(self):
        with pytest.raises(ValueError):
            star_social_cost(0, 1.0, UsageKind.MAX)
        with pytest.raises(ValueError):
            clique_social_cost(-1, 1.0, UsageKind.SUM)

    def test_closed_forms_match_profiles(self, star_profile):
        for usage, game in ((UsageKind.MAX, MaxNCG(2.0)), (UsageKind.SUM, SumNCG(2.0))):
            from repro.core.costs import social_cost

            assert social_cost(star_profile, game) == star_social_cost(6, 2.0, usage)


class TestSocialOptimum:
    def test_star_wins_for_large_alpha(self):
        assert social_optimum(10, 5.0, UsageKind.SUM) == star_social_cost(10, 5.0, UsageKind.SUM)

    def test_clique_wins_for_tiny_alpha(self):
        assert social_optimum(10, 0.05, UsageKind.SUM) == clique_social_cost(
            10, 0.05, UsageKind.SUM
        )

    @pytest.mark.parametrize("usage", [UsageKind.MAX, UsageKind.SUM])
    @pytest.mark.parametrize("alpha", [0.3, 1.0, 2.5, 6.0])
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_benchmark_matches_exact_bruteforce(self, usage, alpha, n):
        benchmark = social_optimum(n, alpha, usage)
        exact = exact_social_optimum(n, alpha, usage)
        assert benchmark == pytest.approx(exact)

    def test_exact_bruteforce_bounds(self):
        with pytest.raises(ValueError):
            exact_social_optimum(8, 1.0, UsageKind.MAX)
        with pytest.raises(ValueError):
            exact_social_optimum(0, 1.0, UsageKind.MAX)
        assert exact_social_optimum(1, 1.0, UsageKind.MAX) == 0.0


class TestGraphSocialCost:
    def test_star_graph(self):
        assert graph_social_cost(star_graph(6), 2.0, UsageKind.MAX) == star_social_cost(
            6, 2.0, UsageKind.MAX
        )

    def test_complete_graph(self):
        assert graph_social_cost(complete_graph(5), 1.0, UsageKind.SUM) == clique_social_cost(
            5, 1.0, UsageKind.SUM
        )

    def test_disconnected_graph_is_infinite(self):
        graph = Graph(nodes=[0, 1, 2], edges=[(0, 1)])
        assert graph_social_cost(graph, 1.0, UsageKind.MAX) == math.inf


class TestPoaRatio:
    def test_star_profile_has_ratio_one_for_alpha_above_one(self, star_profile):
        assert price_of_anarchy_ratio(star_profile, MaxNCG(2.0)) == pytest.approx(1.0)

    def test_cycle_ratio_greater_than_one(self):
        profile = StrategyProfile.from_owned_graph(owned_cycle(12))
        assert price_of_anarchy_ratio(profile, MaxNCG(2.0, k=2)) > 1.0

    def test_single_player(self):
        profile = StrategyProfile({0: frozenset()})
        assert price_of_anarchy_ratio(profile, MaxNCG(2.0)) == 1.0


class TestProfileMetrics:
    def test_star_metrics(self, star_profile):
        metrics = compute_profile_metrics(star_profile, MaxNCG(2.0))
        assert metrics.num_players == 6
        assert metrics.num_edges == 5
        assert metrics.diameter == 2
        assert metrics.max_degree == 5
        assert metrics.max_bought_edges == 5
        assert metrics.min_bought_edges == 0
        assert metrics.quality == pytest.approx(1.0)
        assert metrics.mean_view_size == 6  # full knowledge by default
        assert metrics.unfairness == pytest.approx((2 * 5 + 1) / 2)

    def test_local_view_sizes(self, cycle_profile):
        metrics = compute_profile_metrics(cycle_profile, MaxNCG(2.0, k=2))
        assert metrics.min_view_size == 5
        assert metrics.max_view_size == 5

    def test_views_can_be_skipped(self, cycle_profile):
        metrics = compute_profile_metrics(cycle_profile, MaxNCG(2.0, k=2), include_views=False)
        assert metrics.mean_view_size == 0

    def test_as_dict_round_trip(self, star_profile):
        metrics = compute_profile_metrics(star_profile, SumNCG(1.0))
        data = metrics.as_dict()
        assert data["num_players"] == 6
        assert set(data) >= {"social_cost", "quality", "diameter", "unfairness"}

    def test_unfairness_on_symmetric_network(self, cycle_profile):
        metrics = compute_profile_metrics(cycle_profile, MaxNCG(1.0, k=2))
        assert metrics.unfairness == pytest.approx(1.0)


class TestBlockedMetrics:
    """The streaming metric sweep: block-size invariance and memory ceiling."""

    def test_block_size_invariance(self):
        from repro.graphs.generators.erdos_renyi import owned_connected_gnp_graph

        profile = StrategyProfile.from_owned_graph(
            owned_connected_gnp_graph(40, 0.12, seed=3)
        )
        for game in (MaxNCG(1.5, k=2), SumNCG(2.0, k=3), MaxNCG(0.5)):
            dense = compute_profile_metrics(profile, game, block_size=40)
            for block_size in (1, 7, 16, 41, 1000):
                assert compute_profile_metrics(profile, game, block_size=block_size) == dense

    def test_invalid_block_size_rejected(self, star_profile):
        with pytest.raises(ValueError):
            compute_profile_metrics(star_profile, MaxNCG(1.0), block_size=0)

    def test_no_dense_allocation_above_block_size(self):
        """Acceptance: for n above the block size the sweep must never
        materialise an (n, n) distance matrix — tracemalloc's peak has to
        stay below the 4 n^2 bytes that single int32 allocation would cost
        (with real headroom, since BFS scratch rides on top of any
        hypothetical dense path)."""
        import tracemalloc

        from repro.graphs.generators.smallworld import owned_barabasi_albert

        n, block_size = 2500, 64
        profile = StrategyProfile.from_owned_graph(owned_barabasi_albert(n, 2, seed=0))
        game = MaxNCG(1.0, k=2)
        profile.graph()  # warm the profile's graph cache outside the traced window
        tracemalloc.start()
        metrics = compute_profile_metrics(profile, game, block_size=block_size)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        dense_bytes = 4 * n * n
        assert peak < dense_bytes / 2
        assert metrics.num_players == n
        assert metrics.diameter > 0

    def test_fused_sweep_never_materialises_distance_slices(self):
        """Acceptance for the fused bfs_reduce routing: even with
        ``block_size=n`` — where the pre-fused path allocated one full
        (n, n) int32 distance matrix — the sweep's peak must stay well
        below that 4 n^2 byte allocation.  A cycle keeps every BFS level's
        frontier at two nodes per source, so expansion scratch is O(n) and
        the only conceivable (block_size, n) int32 array would be a
        materialised distance slice; the numpy reference's largest live
        object is its boolean visited matrix (n^2 bytes), leaving real
        headroom under the ceiling."""
        import tracemalloc

        n = 2500
        profile = StrategyProfile.from_owned_graph(owned_cycle(n))
        game = MaxNCG(1.0, k=2)
        profile.graph().to_csr_arrays()  # warm caches outside the traced window
        tracemalloc.start()
        metrics = compute_profile_metrics(profile, game, block_size=n)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        dense_bytes = 4 * n * n
        assert peak < dense_bytes / 2
        assert metrics.num_players == n
        assert metrics.diameter == n // 2

    def test_ingest_reduction_equals_block_folds(self):
        """An accumulator fed the fused vectors is indistinguishable from
        a numpy fold over the materialised distance matrix."""
        from types import SimpleNamespace

        import numpy as np

        from repro.core.games import UsageKind
        from repro.core.metrics import DistanceStatsAccumulator
        from repro.graphs.generators.erdos_renyi import owned_connected_gnp_graph
        from repro.graphs.traversal import (
            batched_bfs_distances,
            reduce_bfs_distances,
        )
        from repro.kernels.common import UNREACHABLE

        profile = StrategyProfile.from_owned_graph(
            owned_connected_gnp_graph(40, 0.12, seed=3)
        )
        indptr, indices, _ = profile.graph().to_csr_arrays()
        sources = np.arange(40, dtype=np.int64)
        dist = batched_bfs_distances(indptr, indices, sources)
        reachable = dist != UNREACHABLE
        finite = np.where(reachable, dist, 0)
        for usage in (UsageKind.MAX, UsageKind.SUM):
            for view_radius in (None, 2):
                blocked = SimpleNamespace(
                    usage_rows=(
                        finite.max(axis=1, initial=0)
                        if usage is UsageKind.MAX
                        else finite.sum(axis=1, dtype=np.int64)
                    ),
                    unreached_rows=(~reachable).sum(axis=1),
                    view_sizes=(
                        np.zeros(40, dtype=np.int64)
                        if view_radius is None
                        else (dist <= view_radius).sum(axis=1)
                    ),
                    diameter=int(finite.max(initial=0)),
                )
                fused = DistanceStatsAccumulator(40, usage, view_radius=view_radius)
                fused.ingest_reduction(
                    *reduce_bfs_distances(
                        indptr, indices, sources, view_radius=view_radius
                    )
                )
                assert np.array_equal(blocked.usage_rows, fused.usage_rows)
                assert np.array_equal(blocked.unreached_rows, fused.unreached_rows)
                assert np.array_equal(blocked.view_sizes, fused.view_sizes)
                assert blocked.diameter == fused.diameter
