"""SumNCG replies priced from one distance matrix equal the BFS reference.

The SumNCG routines of :mod:`repro.core.best_response` price every
candidate strategy from the column minima of the ``H − u`` distance matrix
instead of copying the view and running a BFS per candidate
(:func:`repro.core.deviations.worst_case_delta`).  Both must agree bit for
bit:

* every ``∆`` (``inf`` included), view cost and frontier veto equals the
  reference on random trees and G(n, p), at every knowledge radius, under
  the strict and the tolerant cost model, and on query-based views whose
  frontier vertices sit at different distances;
* the exhaustive, hill-climb, ``restarts`` and dispatch replies (strategy,
  cost, incumbent cost, ``exact``) equal a reference copy of the
  ``worst_case_delta`` loops they replaced, tie-breaks included;
* the engine's SumNCG path never calls the reference at all.

The kernel backend is process state, so running this module under
``REPRO_KERNEL_BACKEND=numpy`` pins the same replies on numpy BFS and the
numpy ``sum_reply`` kernel.
"""

import importlib
import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.deviations as deviations
from repro.core.best_response import (
    SUM_EXHAUSTIVE_LIMIT,
    _sum_problem,
    best_response,
    best_response_sum_exhaustive,
    best_response_sum_local_search,
    max_cover_context,
)
from repro.core.cost_models import TolerantCosts
from repro.core.deviations import (
    COST_EPS,
    deviation_is_forbidden_sum,
    view_cost,
    worst_case_delta,
)
from repro.core.games import FULL_KNOWLEDGE, SumNCG
from repro.core.strategies import StrategyProfile
from repro.core.views import extract_view
from repro.discovery.analysis import best_response_under_model
from repro.discovery.models import TracerouteModel, UnionOfBallsModel
from repro.engine.core import DynamicsEngine
from repro.graphs.generators.erdos_renyi import owned_connected_gnp_graph
from repro.graphs.generators.trees import random_owned_tree
from repro.kernels import use_backend
from repro.solvers.sum_reply import SumEvaluator

#: The module of the SumNCG evaluator and its reference searches.
sum_reply_module = importlib.import_module("repro.solvers.sum_reply")


# ----------------------------------------------------------------------
# The reference: the worst_case_delta loops the evaluator replaced
# ----------------------------------------------------------------------
def _reference_exhaustive(view, game, current, warm_start=None, prune=True):
    candidates = sorted(view.strategy_space, key=repr)
    current_cost = view_cost(view, current, game)
    best_cost, best_strategy = current_cost, current
    num_others = len(candidates)
    num_buyers = len(view.buyers)
    far_cost = min(2.0, game.cost_model.unreachable_distance)
    prune_cost = current_cost
    if warm_start is not None:
        warm = frozenset(warm_start)
        if warm != current and warm.issubset(view.strategy_space):
            delta = worst_case_delta(view, current, warm, game)
            if not math.isinf(delta):
                prune_cost = min(prune_cost, current_cost + delta)
    for size in range(len(candidates) + 1):
        if prune:
            if game.alpha * size + num_others > prune_cost + COST_EPS:
                break
            near_max = min(size + num_buyers, num_others)
            class_bound = (
                game.alpha * size + near_max + (num_others - near_max) * far_cost
            )
            if class_bound > prune_cost + COST_EPS:
                continue
        for combo in itertools.combinations(candidates, size):
            strategy = frozenset(combo)
            if strategy == current:
                continue
            delta = worst_case_delta(view, current, strategy, game)
            if math.isinf(delta):
                continue
            cost = current_cost + delta
            if cost < best_cost - COST_EPS:
                best_cost, best_strategy = cost, strategy
                prune_cost = min(prune_cost, best_cost)
    return best_strategy, best_cost, current_cost, True


def _reference_hill_climb(view, game, candidates, strategy, cost, max_iterations=200):
    for _ in range(max_iterations):
        present = sorted(strategy, key=repr)
        absent = [c for c in candidates if c not in strategy]
        neighbourhood = [strategy | {c} for c in absent]
        neighbourhood += [strategy - {c} for c in present]
        neighbourhood += [
            (strategy - {removed}) | {added} for removed in present for added in absent
        ]
        for candidate in neighbourhood:
            delta = worst_case_delta(view, strategy, candidate, game)
            if math.isinf(delta):
                continue
            if cost + delta < cost - COST_EPS:
                strategy, cost = frozenset(candidate), cost + delta
                break
        else:
            break
    return strategy, cost


def _reference_local_search(view, game, current, seed_strategy=None, restarts=1):
    candidates = sorted(view.strategy_space, key=repr)
    current_cost = view_cost(view, current, game)
    best_strategy, best_cost = current, current_cost
    if seed_strategy is not None:
        seed = frozenset(seed_strategy)
        if seed != current and seed.issubset(view.strategy_space):
            delta = worst_case_delta(view, current, seed, game)
            if not math.isinf(delta) and current_cost + delta < best_cost - COST_EPS:
                best_strategy, best_cost = seed, current_cost + delta
    best_strategy, best_cost = _reference_hill_climb(
        view, game, candidates, best_strategy, best_cost
    )
    if restarts > 1 and candidates:
        rng = random.Random(
            f"sum-restarts:{view.player!r}:{len(candidates)}:{sorted(map(repr, current))}"
        )
        for _ in range(restarts - 1):
            size = rng.randint(0, len(candidates))
            start = frozenset(rng.sample(candidates, size))
            if start == current:
                continue
            delta = worst_case_delta(view, current, start, game)
            if math.isinf(delta):
                continue
            strategy, cost = _reference_hill_climb(
                view, game, candidates, start, current_cost + delta
            )
            if cost < best_cost - COST_EPS:
                best_strategy, best_cost = strategy, cost
    return best_strategy, best_cost, current_cost, False


def _reference_dispatch(view, game, current, limit=SUM_EXHAUSTIVE_LIMIT):
    if len(view.strategy_space) <= limit:
        seed = _reference_local_search(view, game, current)[0]
        return _reference_exhaustive(view, game, current, warm_start=seed)
    return _reference_local_search(view, game, current)


def _bits(value):
    return float(value).hex()


def _reply(response):
    return (
        response.strategy,
        _bits(response.view_cost),
        _bits(response.current_view_cost),
        response.exact,
    )


def _expected(reference):
    strategy, cost, current_cost, exact = reference
    return strategy, _bits(cost), _bits(current_cost), exact


# ----------------------------------------------------------------------
# Random views
# ----------------------------------------------------------------------
cost_models = st.sampled_from([None, TolerantCosts(beta=2.5), TolerantCosts(beta=40.0)])


@st.composite
def sum_cases(draw, max_n=11):
    """(profile, game, player): a tree or G(n, p), any radius, either model."""
    seed = draw(st.integers(min_value=0, max_value=5_000))
    if draw(st.booleans()):
        n = draw(st.integers(min_value=2, max_value=max_n))
        owned = random_owned_tree(n, seed=seed)
    else:
        n = draw(st.integers(min_value=3, max_value=min(max_n, 9)))
        owned = owned_connected_gnp_graph(n, draw(st.sampled_from([0.25, 0.45])), seed=seed)
    profile = StrategyProfile.from_owned_graph(owned)
    k = draw(st.sampled_from([1, 2, 3, FULL_KNOWLEDGE]))
    model = draw(cost_models)
    alpha = draw(st.sampled_from([0.3, 0.5, 1.0, 2.0, 4.0]))
    game = SumNCG(alpha, k=k) if model is None else SumNCG(alpha, k=k, cost_model=model)
    player = draw(st.sampled_from(profile.players()))
    return profile, game, player


def _subset(data, nodes):
    return frozenset(
        data.draw(st.lists(st.sampled_from(nodes), max_size=len(nodes), unique=True))
        if nodes
        else ()
    )


def _evaluator(view, game):
    """The view's evaluator and the map from label strategies to its rows."""
    context = max_cover_context(view)
    pricing, _ = _sum_problem(view, game, context)
    return SumEvaluator(*pricing), lambda strategy: frozenset(
        context.rows(view.player, strategy)
    )


def _assert_evaluator_matches(view, game, current, strategies):
    evaluator, rows = _evaluator(view, game)
    for strategy in strategies:
        cost, forbidden = evaluator.cost(rows(strategy))
        assert _bits(cost) == _bits(view_cost(view, strategy, game))
        assert forbidden == deviation_is_forbidden_sum(view, strategy)
        for old in (current, *strategies[:2]):
            assert _bits(evaluator.delta(rows(old), rows(strategy))) == _bits(
                worst_case_delta(view, old, strategy, game)
            )


class TestEvaluatorDelta:
    @given(sum_cases(), st.data())
    @settings(max_examples=80, deadline=None)
    def test_delta_cost_and_veto_equal_the_bfs_reference(self, case, data):
        profile, game, player = case
        view = extract_view(profile, player, game.k)
        nodes = sorted(view.strategy_space, key=repr)
        current = profile.strategy(player)
        strategies = [frozenset(), frozenset(nodes), current]
        strategies += [_subset(data, nodes) for _ in range(6)]
        _assert_evaluator_matches(view, game, current, strategies)

    def test_disconnecting_move_is_inf_under_strict_costs(self):
        # A path 0-1-2 seen by 1, who owns both edges: dropping everything
        # leaves the view disconnected, whose strict cost is inf.
        profile = StrategyProfile({0: frozenset(), 1: {0, 2}, 2: frozenset()})
        game = SumNCG(1.0)
        view = extract_view(profile, 1, game.k)
        evaluator, rows = _evaluator(view, game)
        assert evaluator.delta(rows(profile.strategy(1)), frozenset()) == math.inf
        assert worst_case_delta(view, profile.strategy(1), frozenset(), game) == math.inf
        assert evaluator.delta(frozenset(), frozenset()) == 0.0  # inf - inf

    def test_targets_outside_the_view_are_refused(self):
        profile = StrategyProfile({0: {1}, 1: {2}, 2: {3}, 3: frozenset()})
        game = SumNCG(1.0, k=1)
        for reply in (best_response_sum_exhaustive, best_response_sum_local_search):
            with pytest.raises(ValueError, match="outside the player's view"):
                reply(profile, 0, game, current_strategy=frozenset({3}))
            with pytest.raises(ValueError, match="herself"):
                reply(profile, 0, game, current_strategy=frozenset({0}))


class TestRepliesEqualTheReference:
    @given(sum_cases(max_n=9), st.booleans(), st.data())
    @settings(max_examples=40, deadline=None)
    def test_exhaustive(self, case, prune, data):
        profile, game, player = case
        view = extract_view(profile, player, game.k)
        current = profile.strategy(player)
        warm = _subset(data, sorted(view.strategy_space, key=repr))
        for seed in (None, warm):
            response = best_response_sum_exhaustive(
                profile, player, game, warm_start=seed, prune=prune
            )
            assert _reply(response) == _expected(
                _reference_exhaustive(view, game, current, warm_start=seed, prune=prune)
            )

    @given(sum_cases(), st.sampled_from([1, 3]), st.data())
    @settings(max_examples=40, deadline=None)
    def test_hill_climb_and_restarts(self, case, restarts, data):
        profile, game, player = case
        view = extract_view(profile, player, game.k)
        current = profile.strategy(player)
        seed = _subset(data, sorted(view.strategy_space, key=repr))
        for seed_strategy in (None, seed):
            response = best_response_sum_local_search(
                profile, player, game, seed_strategy=seed_strategy, restarts=restarts
            )
            assert _reply(response) == _expected(
                _reference_local_search(
                    view, game, current, seed_strategy=seed_strategy, restarts=restarts
                )
            )

    @given(sum_cases(), st.sampled_from([4, SUM_EXHAUSTIVE_LIMIT]))
    @settings(max_examples=40, deadline=None)
    def test_dispatch(self, case, limit):
        profile, game, player = case
        view = extract_view(profile, player, game.k)
        response = best_response(profile, player, game, sum_exhaustive_limit=limit)
        assert _reply(response) == _expected(
            _reference_dispatch(view, game, profile.strategy(player), limit)
        )


    @pytest.mark.parametrize("batch_rows", [1, 5])
    def test_batch_boundaries_do_not_move_replies(self, monkeypatch, batch_rows):
        """Size classes and neighbourhoods split over many batches (the
        numpy kernel's; the native one prices subsets one at a time)."""
        monkeypatch.setattr(sum_reply_module, "_SUM_BATCH_ROWS", batch_rows)
        with use_backend("numpy"):
            for seed in range(3):
                profile = StrategyProfile.from_owned_graph(random_owned_tree(9, seed=seed))
                for game in (SumNCG(0.5, k=3), SumNCG(1.5, k=FULL_KNOWLEDGE)):
                    for player in profile.players()[:3]:
                        view = extract_view(profile, player, game.k)
                        current = profile.strategy(player)
                        assert _reply(best_response(profile, player, game)) == _expected(
                            _reference_dispatch(view, game, current)
                        )
                        assert _reply(
                            best_response_sum_local_search(profile, player, game, restarts=3)
                        ) == _expected(_reference_local_search(view, game, current, restarts=3))


class TestHeterogeneousFrontier:
    """Query-based views: frontier vertices at different distances."""

    MODELS = (TracerouteModel(num_targets=3), UnionOfBallsModel(radius=1))

    def test_some_view_has_a_heterogeneous_frontier(self):
        profile = StrategyProfile.from_owned_graph(
            owned_connected_gnp_graph(12, 0.25, seed=3)
        )
        depths = {
            frozenset(view.distances[f] for f in view.frontier)
            for model in self.MODELS
            for view in (model.observe(profile, p) for p in profile.players())
        }
        assert any(len(levels) > 1 for levels in depths)

    @given(
        st.integers(min_value=5, max_value=12),
        st.integers(min_value=0, max_value=5_000),
        st.sampled_from(MODELS),
        cost_models,
        st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_discovery_views_match_the_reference(self, n, seed, model, cost_model, data):
        profile = StrategyProfile.from_owned_graph(
            owned_connected_gnp_graph(n, 0.3, seed=seed)
        )
        game = SumNCG(1.0) if cost_model is None else SumNCG(1.0, cost_model=cost_model)
        player = data.draw(st.sampled_from(profile.players()))
        view = model.observe(profile, player)
        current = profile.strategy(player)
        nodes = sorted(view.strategy_space, key=repr)
        strategies = [frozenset(), current] + [_subset(data, nodes) for _ in range(4)]
        _assert_evaluator_matches(view, game, current, strategies)
        response = best_response_under_model(
            profile, player, game, model, sum_exhaustive_limit=8
        )
        assert _reply(response) == _expected(
            _reference_dispatch(view, game, current, limit=8)
        )


def _refuse(*args, **kwargs):
    raise AssertionError("the SumNCG path called the BFS reference")


class TestNoReferenceFallback:
    def test_engine_sum_path_never_calls_the_reference(self, monkeypatch):
        # Exact replies at k = 2 and 3 (tolerant), local search at full
        # knowledge (15 candidates > SUM_EXHAUSTIVE_LIMIT).
        owned = random_owned_tree(16, seed=7)
        games = [
            SumNCG(0.5, k=2),
            SumNCG(1.0, k=3, cost_model=TolerantCosts(beta=30.0)),
            SumNCG(1.0, k=FULL_KNOWLEDGE),
        ]
        expected = [
            DynamicsEngine(owned, game, max_rounds=20).run()
            for game in games
        ]
        monkeypatch.setattr(deviations, "worst_case_delta", _refuse)
        monkeypatch.setattr(deviations, "modified_view_graph", _refuse)
        for game, reference in zip(games, expected):
            result = DynamicsEngine(owned, game, max_rounds=20).run()
            assert result.total_changes > 0
            assert (result.rounds, result.converged) == (reference.rounds, reference.converged)
            assert _strategies(result.final_profile) == _strategies(reference.final_profile)


def _strategies(profile):
    return {player: profile.strategy(player) for player in profile.players()}
