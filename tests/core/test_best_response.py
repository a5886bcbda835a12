"""Tests for the best-response computations (Section 5.3 reduction)."""

import itertools
import math

import pytest

from repro.core.best_response import (
    best_response,
    best_response_max,
    best_response_sum_exhaustive,
    best_response_sum_local_search,
)
from repro.core.deviations import view_cost
from repro.core.games import FULL_KNOWLEDGE, MaxNCG, SumNCG
from repro.core.strategies import StrategyProfile
from repro.core.views import extract_view
from repro.graphs.generators.classic import owned_cycle, owned_star
from repro.graphs.generators.trees import random_owned_tree


def brute_force_best_response(profile, player, game):
    """Reference implementation: enumerate every subset of the view."""
    view = extract_view(profile, player, game.k)
    candidates = sorted(view.strategy_space, key=repr)
    best_cost = math.inf
    best_strategy = None
    for size in range(len(candidates) + 1):
        for combo in itertools.combinations(candidates, size):
            cost = view_cost(view, frozenset(combo), game)
            if cost < best_cost - 1e-9:
                best_cost = cost
                best_strategy = frozenset(combo)
    return best_strategy, best_cost


class TestMaxBestResponseExactness:
    @pytest.mark.parametrize("solver", ["milp", "branch_and_bound"])
    @pytest.mark.parametrize("alpha", [0.3, 1.0, 2.5])
    @pytest.mark.parametrize("k", [1, 2, FULL_KNOWLEDGE])
    def test_matches_brute_force_on_path(self, solver, alpha, k):
        profile = StrategyProfile({0: {1}, 1: {2}, 2: {3}, 3: {4}, 4: frozenset()})
        game = MaxNCG(alpha, k=k)
        for player in profile:
            response = best_response_max(profile, player, game, solver=solver)
            _, expected_cost = brute_force_best_response(profile, player, game)
            assert response.view_cost == pytest.approx(expected_cost)

    @pytest.mark.parametrize("alpha", [0.4, 1.5, 4.0])
    def test_matches_brute_force_on_random_trees(self, alpha):
        profile = StrategyProfile.from_owned_graph(random_owned_tree(8, seed=11))
        game = MaxNCG(alpha, k=2)
        for player in profile:
            response = best_response_max(profile, player, game, solver="milp")
            _, expected_cost = brute_force_best_response(profile, player, game)
            assert response.view_cost == pytest.approx(expected_cost)

    def test_best_response_cost_is_realised_by_returned_strategy(self):
        profile = StrategyProfile.from_owned_graph(random_owned_tree(10, seed=3))
        game = MaxNCG(1.0, k=3)
        for player in profile:
            response = best_response_max(profile, player, game)
            view = extract_view(profile, player, game.k)
            assert view_cost(view, response.strategy, game) == pytest.approx(
                response.view_cost
            )

    def test_never_worse_than_current(self):
        profile = StrategyProfile.from_owned_graph(random_owned_tree(12, seed=9))
        game = MaxNCG(0.7, k=2)
        for player in profile:
            response = best_response_max(profile, player, game)
            assert response.view_cost <= response.current_view_cost + 1e-9
            assert response.improvement >= -1e-9


class TestMaxBestResponseStructure:
    def test_star_center_keeps_star_for_alpha_above_one(self, star_profile):
        game = MaxNCG(2.0)
        response = best_response_max(star_profile, 0, game)
        assert not response.is_improving

    def test_star_leaf_has_no_improvement(self, star_profile):
        game = MaxNCG(2.0)
        response = best_response_max(star_profile, 3, game)
        assert not response.is_improving

    def test_leaf_buys_center_when_alpha_small(self):
        # Path end with tiny α buys an edge towards the far side.
        profile = StrategyProfile({0: {1}, 1: {2}, 2: {3}, 3: {4}, 4: frozenset()})
        game = MaxNCG(0.25, k=FULL_KNOWLEDGE)
        response = best_response_max(profile, 4, game)
        assert response.is_improving
        assert len(response.strategy) >= 1

    def test_in_neighbours_are_free(self):
        # Player 1 owns nothing; 0 and 2 both bought edges to 1.  The best
        # response of 1 keeps cost = eccentricity with zero building cost.
        profile = StrategyProfile({0: {1}, 1: frozenset(), 2: {1}})
        game = MaxNCG(5.0)
        response = best_response_max(profile, 1, game)
        assert response.strategy == frozenset()
        assert response.view_cost == 1

    def test_isolated_player_in_view(self):
        profile = StrategyProfile({0: {1}, 1: set(), 2: set()})
        game = MaxNCG(2.0, k=2)
        response = best_response_max(profile, 2, game)
        # Player 2 sees only herself; the empty strategy is the only option.
        assert response.strategy == frozenset()
        assert response.view_size == 1

    def test_greedy_solver_never_better_than_exact(self):
        profile = StrategyProfile.from_owned_graph(random_owned_tree(12, seed=5))
        game = MaxNCG(0.5, k=3)
        for player in list(profile)[:6]:
            exact = best_response_max(profile, player, game, solver="milp")
            greedy = best_response_max(profile, player, game, solver="greedy")
            assert greedy.view_cost >= exact.view_cost - 1e-9

    def test_local_view_limits_improvement(self):
        # On a long cycle with k = 1 the view is a 3-node path: no move helps.
        profile = StrategyProfile.from_owned_graph(owned_cycle(12))
        game = MaxNCG(1.0, k=1)
        for player in range(12):
            response = best_response_max(profile, player, game)
            assert not response.is_improving


class TestSumBestResponse:
    def test_exhaustive_matches_reference_full_knowledge(self):
        profile = StrategyProfile.from_owned_graph(random_owned_tree(7, seed=2))
        game = SumNCG(1.5)
        for player in profile:
            response = best_response_sum_exhaustive(profile, player, game)
            _, expected_cost = brute_force_best_response(profile, player, game)
            assert response.view_cost == pytest.approx(expected_cost)

    def test_exhaustive_respects_forbidden_moves(self):
        # Path with k=2: the centre cannot drop its frontier-reaching edge.
        profile = StrategyProfile({0: {1}, 1: {2}, 2: {3}, 3: {4}, 4: frozenset()})
        game = SumNCG(100.0, k=2)
        response = best_response_sum_exhaustive(profile, 2, game)
        # Even with huge α the forbidden rule prevents dropping the edge to 3.
        assert 3 in response.strategy

    def test_exhaustive_size_guard(self):
        profile = StrategyProfile.from_owned_graph(owned_star(20))
        game = SumNCG(1.0)
        with pytest.raises(ValueError):
            best_response_sum_exhaustive(profile, 0, game, max_candidates=5)

    def test_local_search_never_worse_than_current(self):
        profile = StrategyProfile.from_owned_graph(random_owned_tree(15, seed=4))
        game = SumNCG(1.0, k=3)
        for player in list(profile)[:8]:
            response = best_response_sum_local_search(profile, player, game)
            assert response.view_cost <= response.current_view_cost + 1e-9
            assert not response.exact

    def test_local_search_finds_obvious_improvement(self):
        profile = StrategyProfile({0: {1}, 1: {2}, 2: {3}, 3: {4}, 4: frozenset()})
        game = SumNCG(0.1)
        response = best_response_sum_local_search(profile, 0, game)
        assert response.is_improving

    def test_dispatcher_selects_by_usage_and_size(self, star_profile):
        max_resp = best_response(star_profile, 0, MaxNCG(2.0))
        sum_resp = best_response(star_profile, 0, SumNCG(2.0))
        assert max_resp.exact and sum_resp.exact
        big = StrategyProfile.from_owned_graph(random_owned_tree(30, seed=1))
        heuristic = best_response(big, 0, SumNCG(2.0), sum_exhaustive_limit=5)
        assert not heuristic.exact

    def test_wrong_usage_kind_raises(self, star_profile):
        with pytest.raises(ValueError):
            best_response_max(star_profile, 0, SumNCG(1.0))
        with pytest.raises(ValueError):
            best_response_sum_exhaustive(star_profile, 0, MaxNCG(1.0))
        with pytest.raises(ValueError):
            best_response_sum_local_search(star_profile, 0, MaxNCG(1.0))


class TestSumLocalSearchRestarts:
    """Multi-seed climbs of the heuristic SumNCG path (above the limit)."""

    def _profile_and_game(self, seed=0, n=18):
        owned = random_owned_tree(n, seed=seed)
        return StrategyProfile.from_owned_graph(owned), SumNCG(alpha=1.0)

    def test_restarts_default_is_bit_identical(self):
        profile, game = self._profile_and_game()
        for player in list(profile)[:5]:
            one = best_response_sum_local_search(profile, player, game)
            explicit = best_response_sum_local_search(profile, player, game, restarts=1)
            assert one.strategy == explicit.strategy
            assert one.view_cost == explicit.view_cost

    def test_restarts_deterministic_and_never_worse(self):
        for seed in range(4):
            profile, game = self._profile_and_game(seed=seed)
            for player in list(profile)[:4]:
                single = best_response_sum_local_search(profile, player, game)
                multi = best_response_sum_local_search(
                    profile, player, game, restarts=5
                )
                again = best_response_sum_local_search(
                    profile, player, game, restarts=5
                )
                assert multi.strategy == again.strategy  # pure function
                assert multi.view_cost <= single.view_cost + 1e-9
                assert not multi.exact

    def test_invalid_restarts_rejected(self):
        profile, game = self._profile_and_game()
        with pytest.raises(ValueError, match="restarts"):
            best_response_sum_local_search(profile, list(profile)[0], game, restarts=0)
