"""Tests for the LKE deviation semantics (Propositions 2.1 and 2.2)."""

import math

import pytest

from repro.core.deviations import (
    COST_EPS,
    deviation_is_forbidden_sum,
    modified_view_graph,
    view_cost,
    worst_case_delta,
)
from repro.core.games import MaxNCG, SumNCG
from repro.core.strategies import StrategyProfile
from repro.core.views import extract_view


@pytest.fixture
def path_profile_5():
    """Path 0-1-2-3-4, each node buying the edge to its successor."""
    return StrategyProfile({0: {1}, 1: {2}, 2: {3}, 3: {4}, 4: frozenset()})


class TestModifiedViewGraph:
    def test_removes_owned_edges_only(self, path_profile_5):
        view = extract_view(path_profile_5, 1, k=2)
        modified = modified_view_graph(view, frozenset())
        # Player 1 owned (1, 2): it disappears; (0, 1) was bought by 0: it stays.
        assert not modified.has_edge(1, 2)
        assert modified.has_edge(0, 1)

    def test_adds_new_edges(self, path_profile_5):
        view = extract_view(path_profile_5, 1, k=2)
        modified = modified_view_graph(view, frozenset({3}))
        assert modified.has_edge(1, 3)

    def test_rejects_target_outside_view(self, path_profile_5):
        view = extract_view(path_profile_5, 0, k=1)
        with pytest.raises(ValueError):
            modified_view_graph(view, frozenset({4}))

    def test_rejects_self_edge(self, path_profile_5):
        view = extract_view(path_profile_5, 0, k=1)
        with pytest.raises(ValueError):
            modified_view_graph(view, frozenset({0}))

    def test_original_view_unchanged(self, path_profile_5):
        view = extract_view(path_profile_5, 1, k=2)
        modified_view_graph(view, frozenset())
        assert view.subgraph.has_edge(1, 2)


class TestViewCost:
    def test_current_strategy_cost_max(self, path_profile_5):
        game = MaxNCG(2.0, k=2)
        view = extract_view(path_profile_5, 2, k=2)
        # View of 2 is the whole path (radius 2 covers it); ecc inside = 2.
        assert view_cost(view, path_profile_5.strategy(2), game) == 2.0 * 1 + 2

    def test_current_strategy_cost_sum(self, path_profile_5):
        game = SumNCG(1.0, k=2)
        view = extract_view(path_profile_5, 2, k=2)
        assert view_cost(view, path_profile_5.strategy(2), game) == 1.0 + (1 + 1 + 2 + 2)

    def test_disconnecting_strategy_costs_infinity(self, path_profile_5):
        game = MaxNCG(2.0, k=2)
        view = extract_view(path_profile_5, 2, k=2)
        # Dropping the edge to 3 disconnects 3 and 4 from 2 inside the view.
        assert view_cost(view, frozenset(), game) == math.inf


class TestMaxDeviation:
    def test_improving_deviation_detected(self):
        # Path 0-1-2-3-4 with full knowledge and large view: the endpoint 0
        # improves by buying an edge to the centre 2 when α is small.
        profile = StrategyProfile({0: {1}, 1: {2}, 2: {3}, 3: {4}, 4: frozenset()})
        game = MaxNCG(0.5, k=4)
        view = extract_view(profile, 0, k=4)
        delta = worst_case_delta(view, profile.strategy(0), frozenset({1, 2}), game)
        # New ecc = 3 (node 4 is now at distance 3), old ecc = 4, the extra
        # edge costs 0.5: the worst-case delta is 0.5 - 1.
        assert delta == pytest.approx(0.5 - 1)

    def test_not_improving_when_alpha_large(self):
        profile = StrategyProfile({0: {1}, 1: {2}, 2: {3}, 3: {4}, 4: frozenset()})
        game = MaxNCG(10.0, k=4)
        view = extract_view(profile, 0, k=4)
        delta = worst_case_delta(view, profile.strategy(0), frozenset({1, 2}), game)
        assert delta >= -COST_EPS

    def test_cycle_player_cannot_improve_when_alpha_geq_k_minus_1(self, cycle_profile):
        # Lemma 3.1 intuition: on a cycle with α >= k - 1, buying an edge
        # inside the (path-shaped) view saves at most k - 1.
        game = MaxNCG(2.0, k=3)
        view = extract_view(cycle_profile, 0, k=3)
        current = cycle_profile.strategy(0)
        for target in view.strategy_space:
            candidate = current | {target}
            assert worst_case_delta(view, current, candidate, game) >= -COST_EPS

    def test_dropping_bridge_edge_never_improves(self, path_profile_5):
        game = MaxNCG(100.0, k=2)
        view = extract_view(path_profile_5, 2, k=2)
        delta = worst_case_delta(view, path_profile_5.strategy(2), frozenset(), game)
        assert delta == math.inf or delta > 0


class TestSumDeviation:
    def test_forbidden_when_frontier_pushed_away(self, path_profile_5):
        game = SumNCG(0.1, k=2)
        view = extract_view(path_profile_5, 2, k=2)
        # Frontier of 2 at radius 2 is {0, 4}.  Dropping the owned edge (2,3)
        # pushes 4 beyond distance 2 (in fact disconnects it).
        assert view.frontier == {0, 4}
        assert deviation_is_forbidden_sum(view, frozenset())
        assert worst_case_delta(view, path_profile_5.strategy(2), frozenset(), game) == math.inf

    def test_swap_that_keeps_frontier_close_is_allowed(self, path_profile_5):
        game = SumNCG(0.1, k=2)
        view = extract_view(path_profile_5, 2, k=2)
        # Buying an extra edge to 4 keeps every frontier vertex within k.
        new_strategy = frozenset({3, 4})
        assert not deviation_is_forbidden_sum(view, new_strategy)
        delta = worst_case_delta(view, path_profile_5.strategy(2), new_strategy, game)
        # Distance to 4 drops from 2 to 1, at a price of α = 0.1: improvement.
        assert delta == pytest.approx(0.1 - 1)

    def test_no_frontier_means_nothing_forbidden(self, star_profile):
        view = extract_view(star_profile, 0, k=3)
        assert view.frontier == set()
        assert not deviation_is_forbidden_sum(view, frozenset({1}))

    def test_forbidden_check_uses_modified_graph(self):
        # Cycle of 6 with k = 2: view of 0 is a path 4-5-0-1-2 with frontier
        # {2, 4}.  Swapping the owned edge (0,1) for (0,2) keeps 2 at distance
        # 1 but pushes ... 1 is not frontier, so the move stays allowed.
        profile = StrategyProfile(
            {i: {(i + 1) % 6} for i in range(6)}
        )
        view = extract_view(profile, 0, k=2)
        assert view.frontier == {2, 4}
        assert not deviation_is_forbidden_sum(view, frozenset({2}))

    def test_identical_strategy_has_zero_delta(self, path_profile_5):
        for game in (SumNCG(1.0, k=2), MaxNCG(1.0, k=2)):
            view = extract_view(path_profile_5, 1, k=2)
            current = path_profile_5.strategy(1)
            assert worst_case_delta(view, current, current, game) == pytest.approx(0.0)
