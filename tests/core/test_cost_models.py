"""The cost-model layer: strict vs disconnection-tolerant usage semantics.

Three contracts matter:

* on a connected network every model agrees *exactly* (the strict paper
  semantics are reproduced bit-for-bit by any tolerant β);
* on a disconnected network the strict model prices everything at inf (and
  the metrics refuse it) while a tolerant model prices each unreachable
  node as if it sat β hops away;
* models are engine-grade citizens: hashable inside :class:`GameSpec`,
  picklable across sweep workers, JSON round-trippable, and consumed by the
  tolerant best-response regimes (cross-checked against brute force here).
"""

import itertools
import math
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.best_response import best_response, best_response_max
from repro.core.cost_models import (
    STRICT,
    StrictCosts,
    TolerantCosts,
    cost_model_from_payload,
    cost_model_to_payload,
    resolve_cost_model,
)
from repro.core.costs import (
    all_player_costs,
    player_cost,
    social_cost,
    usage_from_distances,
)
from repro.core.deviations import COST_EPS, view_cost
from repro.core.games import FULL_KNOWLEDGE, GameSpec, MaxNCG, SumNCG, UsageKind
from repro.core.metrics import compute_profile_metrics
from repro.core.serialization import game_from_dict, game_to_dict
from repro.core.strategies import StrategyProfile
from repro.core.views import extract_view
from repro.graphs.generators.trees import random_owned_tree


def _random_profile(n: int, seed: int) -> StrategyProfile:
    """A possibly-disconnected random strategy profile on ``n`` players."""
    rng = random.Random(seed)
    strategies = {}
    for p in range(n):
        others = [q for q in range(n) if q != p]
        strategies[p] = frozenset(rng.sample(others, rng.randint(0, min(2, len(others)))))
    return StrategyProfile(strategies)


DISCONNECTED = StrategyProfile(
    {0: frozenset({1}), 1: frozenset(), 2: frozenset({3}), 3: frozenset()}
)

tree_profiles = st.builds(
    lambda n, seed: StrategyProfile.from_owned_graph(random_owned_tree(n, seed=seed)),
    st.integers(min_value=2, max_value=12),
    st.integers(min_value=0, max_value=5_000),
)
random_profiles = st.builds(
    _random_profile,
    st.integers(min_value=3, max_value=9),
    st.integers(min_value=0, max_value=5_000),
)
alphas = st.sampled_from([0.25, 0.5, 1.0, 2.0, 5.0])
betas = st.sampled_from([1.0, 2.0, 7.5, 40.0])


class TestModelBasics:
    def test_strict_aggregates(self):
        assert STRICT.usage_max(3.0, 0) == 3.0
        assert STRICT.usage_max(3.0, 2) == math.inf
        assert STRICT.usage_sum(10.0, 0) == 10.0
        assert STRICT.usage_sum(10.0, 1) == math.inf
        assert not STRICT.is_finite
        assert STRICT == StrictCosts()

    def test_tolerant_aggregates(self):
        model = TolerantCosts(beta=5.0)
        assert model.usage_max(3.0, 0) == 3.0
        assert model.usage_max(3.0, 2) == 5.0
        assert model.usage_max(8.0, 2) == 8.0  # realised ecc dominates beta
        assert model.usage_sum(10.0, 3) == 25.0
        assert model.is_finite
        assert model.unreachable_distance == 5.0

    @pytest.mark.parametrize("beta", [0.0, 0.5, -1.0, math.inf, math.nan])
    def test_tolerant_rejects_bad_beta(self, beta):
        with pytest.raises(ValueError, match="beta"):
            TolerantCosts(beta=beta)

    def test_resolve(self):
        assert resolve_cost_model(None) is STRICT
        assert resolve_cost_model("strict") is STRICT
        assert resolve_cost_model("tolerant", beta=3.0) == TolerantCosts(3.0)
        model = TolerantCosts(2.0)
        assert resolve_cost_model(model) is model
        with pytest.raises(ValueError, match="beta"):
            resolve_cost_model("tolerant")
        with pytest.raises(ValueError, match="unknown cost model"):
            resolve_cost_model("lenient")

    def test_payload_round_trip(self):
        for model in (STRICT, TolerantCosts(2.0), TolerantCosts(100.0)):
            assert cost_model_from_payload(cost_model_to_payload(model)) == model
        # Pre-cost-model documents carry no payload: they decode to strict.
        assert cost_model_from_payload(None) is STRICT

    def test_game_spec_integration(self):
        tol = TolerantCosts(beta=7.0)
        strict_game = MaxNCG(2.0, k=2)
        tolerant_game = MaxNCG(2.0, k=2, cost_model=tol)
        assert strict_game != tolerant_game
        assert {strict_game: "a", tolerant_game: "b"}[tolerant_game] == "b"
        # Strict labels are unchanged from the pre-cost-model layout.
        assert strict_game.label() == "maxncg(alpha=2, k=2)"
        assert "tolerant(beta=7)" in tolerant_game.label()
        assert strict_game.with_cost_model(tol) == tolerant_game
        assert pickle.loads(pickle.dumps(tolerant_game)) == tolerant_game
        with pytest.raises(ValueError, match="cost_model"):
            GameSpec(alpha=1.0, usage=UsageKind.MAX, cost_model="tolerant")

    def test_game_serialization_round_trip_and_back_compat(self):
        tolerant_game = SumNCG(1.5, k=3, cost_model=TolerantCosts(9.0))
        assert game_from_dict(game_to_dict(tolerant_game)) == tolerant_game
        strict_payload = game_to_dict(SumNCG(1.5, k=3))
        # Strict documents stay byte-identical to the old format.
        assert "cost_model" not in strict_payload
        assert game_from_dict(strict_payload) == SumNCG(1.5, k=3)


class TestConnectedAgreement:
    """On connected profiles, strict and tolerant semantics agree exactly."""

    @given(tree_profiles, alphas, betas)
    @settings(max_examples=30, deadline=None)
    def test_costs_and_metrics_agree_on_connected(self, profile, alpha, beta):
        tol = TolerantCosts(beta=beta)
        for factory in (MaxNCG, SumNCG):
            strict_game = factory(alpha, k=2)
            tolerant_game = factory(alpha, k=2, cost_model=tol)
            assert all_player_costs(profile, strict_game) == all_player_costs(
                profile, tolerant_game
            )
            strict_metrics = compute_profile_metrics(profile, strict_game)
            tolerant_metrics = compute_profile_metrics(profile, tolerant_game)
            assert strict_metrics == tolerant_metrics
            assert tolerant_metrics.unreachable_pairs == 0

    @given(tree_profiles, alphas, betas, st.sampled_from([2, 3, FULL_KNOWLEDGE]))
    @settings(max_examples=25, deadline=None)
    def test_view_costs_agree_on_connected_views(self, profile, alpha, beta, k):
        tol = TolerantCosts(beta=beta)
        for player in list(profile)[:4]:
            view = extract_view(profile, player, k)
            strategy = profile.strategy(player)
            for usage_factory in (MaxNCG, SumNCG):
                assert view_cost(view, strategy, usage_factory(alpha, k=k)) == view_cost(
                    view, strategy, usage_factory(alpha, k=k, cost_model=tol)
                )

    def test_usage_from_distances_dispatch(self):
        distances = {0: 0, 1: 1, 2: 2}
        assert usage_from_distances(distances, 3, UsageKind.MAX) == 2.0
        assert usage_from_distances(distances, 5, UsageKind.MAX) == math.inf
        tol = TolerantCosts(beta=4.0)
        assert usage_from_distances(distances, 5, UsageKind.MAX, cost_model=tol) == 4.0
        assert usage_from_distances(distances, 5, UsageKind.SUM, cost_model=tol) == 11.0


class TestFusedPlayerCosts:
    """``all_player_costs`` prices every player from one fused kernel sweep;
    it must equal the per-player Python BFS path exactly, connected or not."""

    @given(random_profiles, alphas, betas)
    @settings(max_examples=40, deadline=None)
    def test_matches_per_player_costs(self, profile, alpha, beta):
        for model in (STRICT, TolerantCosts(beta=beta)):
            for factory in (MaxNCG, SumNCG):
                game = factory(alpha, cost_model=model)
                expected = {
                    player: player_cost(profile, player, game) for player in profile
                }
                costs = all_player_costs(profile, game)
                assert list(costs) == list(expected)
                assert costs == expected


class TestDisconnectedPricing:
    def test_strict_prices_disconnection_at_inf(self):
        costs = all_player_costs(DISCONNECTED, MaxNCG(1.0))
        assert all(math.isinf(v) for v in costs.values())
        with pytest.raises(ValueError, match="disconnected"):
            compute_profile_metrics(DISCONNECTED, MaxNCG(1.0))

    def test_tolerant_prices_disconnection_finitely(self):
        game = SumNCG(1.0, cost_model=TolerantCosts(beta=6.0))
        costs = all_player_costs(DISCONNECTED, game)
        # Each player: 1 bought-or-free neighbour at distance 1, two
        # unreachable nodes at beta each (owners additionally pay alpha).
        assert costs[1] == 1 + 2 * 6.0
        assert costs[0] == 1.0 + 1 + 2 * 6.0
        assert social_cost(DISCONNECTED, game) == sum(costs.values())
        metrics = compute_profile_metrics(DISCONNECTED, game)
        assert metrics.social_cost == sum(costs.values())
        assert metrics.unreachable_pairs == 8
        assert metrics.diameter == 1  # largest realised distance
        assert all(map(math.isfinite, (metrics.max_player_cost, metrics.quality)))

    def test_metrics_block_size_invariance_on_disconnected(self):
        game = MaxNCG(0.5, k=2, cost_model=TolerantCosts(beta=3.0))
        profile = StrategyProfile(
            {
                0: frozenset({1, 2}),
                1: frozenset(),
                2: frozenset(),
                3: frozenset({4}),
                4: frozenset({5}),
                5: frozenset(),
            }
        )
        reference = compute_profile_metrics(profile, game, block_size=6)
        for block_size in (1, 2, 5, 100):
            assert compute_profile_metrics(profile, game, block_size=block_size) == reference


def _brute_force_best(profile, player, game):
    """Naive enumeration over every strategy, priced by view_cost."""
    view = extract_view(profile, player, game.k)
    candidates = sorted(view.strategy_space, key=repr)
    best_cost = view_cost(view, profile.strategy(player), game)
    best_strategy = profile.strategy(player)
    for size in range(len(candidates) + 1):
        for combo in itertools.combinations(candidates, size):
            cost = view_cost(view, frozenset(combo), game)
            if cost < best_cost - COST_EPS:
                best_cost, best_strategy = cost, frozenset(combo)
    return best_cost, best_strategy


class TestTolerantBestResponseMax:
    """The component-abandonment regime, pinned against brute force."""

    def test_abandoning_a_costly_branch_wins(self):
        # u (=0) bought the only edge towards a long chain; with a huge
        # alpha and a small beta the rational reply is to cut it loose.
        profile = StrategyProfile(
            {
                0: frozenset({1, 3}),
                1: frozenset({2}),
                2: frozenset(),
                3: frozenset(),
                4: frozenset({3}),
            }
        )
        game = MaxNCG(10.0, cost_model=TolerantCosts(beta=2.0))
        response = best_response_max(profile, 0, game)
        assert response.strategy == frozenset()
        # She keeps nothing: usage max(0, beta) = 2 beats paying alpha.
        assert response.view_cost == 2.0
        assert response.is_improving
        # Under the strict model dropping everything costs inf: she holds.
        strict = best_response_max(profile, 0, MaxNCG(10.0))
        assert strict.strategy != frozenset()

    def test_buyer_components_cannot_be_abandoned(self):
        # Player 0 has a buyer (1): component {1, 2} is reached no matter
        # what she plays, so her usage must cover it.
        profile = StrategyProfile(
            {
                0: frozenset(),
                1: frozenset({0, 2}),
                2: frozenset(),
            }
        )
        game = MaxNCG(0.5, cost_model=TolerantCosts(beta=1.0))
        response = best_response_max(profile, 0, game)
        brute_cost, _ = _brute_force_best(profile, 0, game)
        assert response.view_cost == pytest.approx(brute_cost)
        assert response.view_cost >= 1.0  # the buyer keeps her attached

    @given(
        random_profiles,
        st.sampled_from([0.3, 1.0, 2.5, 6.0]),
        st.sampled_from([1.0, 2.0, 5.0, 20.0]),
        st.sampled_from([2, 3, FULL_KNOWLEDGE]),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_brute_force(self, profile, alpha, beta, k):
        game = MaxNCG(alpha, k=k, cost_model=TolerantCosts(beta=beta))
        for player in list(profile)[:4]:
            brute_cost, _ = _brute_force_best(profile, player, game)
            response = best_response_max(profile, player, game)
            assert response.view_cost == pytest.approx(brute_cost)
            assert response.exact

    @given(
        random_profiles,
        st.sampled_from([0.3, 1.0, 2.5]),
        st.sampled_from([1.0, 3.0, 15.0]),
    )
    @settings(max_examples=30, deadline=None)
    def test_sum_dispatch_matches_brute_force_tolerant(self, profile, alpha, beta):
        game = SumNCG(alpha, k=2, cost_model=TolerantCosts(beta=beta))
        for player in list(profile)[:3]:
            response = best_response(profile, player, game)
            view = extract_view(profile, player, game.k)
            # The dispatch's reply can never be beaten by any allowed move
            # (Prop 2.2 forbids some strategies, so compare via the same
            # worst-case rule the solver optimises).
            from repro.core.deviations import worst_case_delta

            current = profile.strategy(player)
            current_cost = view_cost(view, current, game)
            candidates = sorted(view.strategy_space, key=repr)
            for size in range(len(candidates) + 1):
                for combo in itertools.combinations(candidates, size):
                    delta = worst_case_delta(view, current, frozenset(combo), game)
                    if math.isinf(delta):
                        continue
                    assert current_cost + delta >= response.view_cost - COST_EPS
