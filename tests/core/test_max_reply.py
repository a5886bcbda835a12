"""The ``max_reply`` kernel equals the eccentricity-guess loop it replaced.

:func:`repro.core.best_response.best_response_max` hands its whole
``h`` loop to the kernel backend's ``max_reply`` (one C call on the native
backend, the Python loop of :func:`repro.solvers.set_cover.max_reply` on
numpy).  Both must agree bit for bit with a frozen copy of the loop as it
stood inside ``best_response_max``, tie-breaks included:

* kernel level — the returned cost and cover rows (in solver order) on
  every available backend, warm and cold, over random (often
  disconnected) distance matrices, random forced rows, fractional ``α``
  and incumbents from infinite down to barely beatable;
* reply level — strategy, view cost, incumbent cost and ``exact`` of
  ``best_response_max`` against a frozen copy that prices the incumbent
  by BFS on the copied view, on random profiles with random current
  strategies (so infinite incumbent costs occur), forced buyers, every
  knowledge radius, both cost models and the trivial view.
"""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.best_response import (
    BestResponse,
    _tolerant_partial_max,
    best_response_max,
    max_cover_context,
)
from repro.core.cost_models import TolerantCosts
from repro.core.deviations import COST_EPS, view_cost
from repro.core.games import FULL_KNOWLEDGE, MaxNCG
from repro.core.strategies import StrategyProfile
from repro.core.views import extract_view
from repro.graphs.generators.erdos_renyi import gnp_random_graph
from repro.graphs.traversal import distance_matrix
from repro.kernels import available_backends, get_backend
from repro.solvers.set_cover import SetCoverInstance, solve_set_cover

ALPHAS = [0.25, 0.4, 0.5, 0.7, 1.0, 1.3, 2.0, 2.5, 3.7]


# ----------------------------------------------------------------------
# The reference: the loop as it stood inside best_response_max
# ----------------------------------------------------------------------
def _frozen_loop(dist, order, forced, alpha, best_cost, warm_start, solver, backend):
    exact = solver != "greedy"
    best_strategy = None
    previous_selected = None
    for h in range(1, len(order) + 1):
        if h >= best_cost - COST_EPS:
            break
        coverage = dist <= (h - 1)
        instance = SetCoverInstance(
            coverage=coverage,
            forced=forced,
            candidate_labels=order,
            element_labels=order,
        )
        if warm_start:
            size_cap = (
                int(math.ceil((best_cost - COST_EPS - h) / alpha))
                if math.isfinite(best_cost)
                else None
            )
            result = solve_set_cover(
                instance,
                method=solver,
                upper_bound=size_cap,
                warm_start=previous_selected,
                backend=backend,
            )
        else:
            result = solve_set_cover(instance, method=solver, backend=backend)
        if not result.feasible:
            continue
        previous_selected = result.selected
        cost = alpha * result.objective + h
        if cost < best_cost - COST_EPS:
            best_cost = cost
            best_strategy = result.selected_labels(instance)
            if not result.optimal:
                exact = False
    return best_cost, best_strategy, exact


def _frozen_best_response_max(profile, player, game, current, solver, warm_start, backend):
    view = extract_view(profile, player, game.k)
    current_cost = view_cost(view, current, game)
    exact = solver != "greedy"
    if not sorted(view.strategy_space, key=repr):
        return BestResponse(player, frozenset(), game.alpha * 0, current_cost, exact, view.size)
    context = max_cover_context(view, backend="numpy")
    best_cost, labels, exact = _frozen_loop(
        context.dist, context.order, context.forced, game.alpha, current_cost,
        warm_start, solver, backend,
    )
    strategy = current if labels is None else frozenset(labels)
    if game.cost_model.is_finite:
        best_cost, strategy, exact = _tolerant_partial_max(
            game, context.dist, context.order, context.forced, solver, warm_start,
            best_cost, strategy, exact, backend=backend,
        )
    return BestResponse(player, strategy, best_cost, current_cost, exact, view.size)


# ----------------------------------------------------------------------
# Kernel level
# ----------------------------------------------------------------------
@st.composite
def reply_inputs(draw):
    """(dist, forced, alpha, best_cost): G(n, p) distances, often disconnected."""
    n = draw(st.integers(min_value=0, max_value=24))
    p = draw(st.sampled_from([0.08, 0.15, 0.25, 0.4, 0.7]))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    if n:
        dist, _ = distance_matrix(gnp_random_graph(n, p, random.Random(seed)), backend="numpy")
    else:
        dist = np.zeros((0, 0), dtype=np.int32)
    forced = tuple(sorted(draw(st.sets(st.integers(0, max(n - 1, 0)), max_size=3)))) if n else ()
    alpha = draw(st.sampled_from(ALPHAS))
    best_cost = draw(
        st.one_of(
            st.just(math.inf),
            st.floats(min_value=0.5, max_value=2.0 + alpha * n + n),
        )
    )
    return dist, forced, alpha, best_cost


class TestMaxReplyKernel:
    @given(reply_inputs(), st.booleans())
    @settings(max_examples=250, deadline=None)
    def test_every_backend_matches_the_frozen_loop(self, case, warm_start):
        dist, forced, alpha, best_cost = case
        order = list(range(dist.shape[0]))
        expected_cost, expected, _ = _frozen_loop(
            dist, order, forced, alpha, best_cost, warm_start, "branch_and_bound", "numpy"
        )
        for name in available_backends():
            cost, selection = get_backend(name).max_reply(
                dist, forced, alpha, best_cost, warm_start
            )
            assert cost == expected_cost, name
            assert selection == (None if expected is None else tuple(expected)), name

    def test_trivial_view_keeps_the_incumbent(self):
        dist = np.zeros((0, 0), dtype=np.int32)
        for name in available_backends():
            for warm_start in (True, False):
                assert get_backend(name).max_reply(dist, (), 1.0, 0.0, warm_start) == (0.0, None)

    def test_disconnected_incumbent_gets_a_finite_reply(self):
        # Two components, no buyers: only buying into both reconnects her.
        dist, _ = distance_matrix(gnp_random_graph(6, 0.0), backend="numpy")
        for name in available_backends():
            cost, selection = get_backend(name).max_reply(dist, (), 0.5, math.inf, True)
            assert math.isfinite(cost) and len(selection) == 6


# ----------------------------------------------------------------------
# Reply level
# ----------------------------------------------------------------------
@st.composite
def reply_cases(draw):
    """(profile, player, game, current): random owned G(n, p) profiles."""
    n = draw(st.integers(min_value=1, max_value=12))
    p = draw(st.sampled_from([0.15, 0.3, 0.5]))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    rng = random.Random(seed)
    strategies = {node: set() for node in range(n)}
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                owner, target = (i, j) if rng.random() < 0.5 else (j, i)
                strategies[owner].add(target)
    profile = StrategyProfile(strategies)
    player = draw(st.integers(min_value=0, max_value=n - 1))
    k = draw(st.sampled_from([1, 2, 3, FULL_KNOWLEDGE]))
    cost_model = draw(st.sampled_from([None, TolerantCosts(beta=2.5)]))
    alpha = draw(st.sampled_from(ALPHAS))
    game = MaxNCG(alpha, k=k) if cost_model is None else MaxNCG(alpha, k=k, cost_model=cost_model)
    space = sorted(extract_view(profile, player, k).strategy_space)
    current = frozenset(
        draw(st.one_of(st.just(profile.strategy(player)), st.sets(st.sampled_from(space))))
        if space
        else profile.strategy(player)
    )
    return profile, player, game, current


def _assert_same_reply(actual, expected):
    assert actual.strategy == expected.strategy
    assert actual.view_cost == expected.view_cost
    assert actual.current_view_cost == expected.current_view_cost
    assert actual.exact == expected.exact
    assert actual.view_size == expected.view_size


class TestBestResponseMaxParity:
    @given(reply_cases(), st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_branch_and_bound_on_every_backend(self, case, warm_start):
        profile, player, game, current = case
        expected = _frozen_best_response_max(
            profile, player, game, current, "branch_and_bound", warm_start, "numpy"
        )
        for name in available_backends():
            actual = best_response_max(
                profile, player, game, current_strategy=current,
                warm_start=warm_start, backend=name,
            )
            _assert_same_reply(actual, expected)

    @given(reply_cases())
    @settings(max_examples=60, deadline=None)
    def test_greedy_ablation(self, case):
        profile, player, game, current = case
        expected = _frozen_best_response_max(
            profile, player, game, current, "greedy", False, "numpy"
        )
        actual = best_response_max(
            profile, player, game, solver="greedy", current_strategy=current
        )
        _assert_same_reply(actual, expected)

    @pytest.mark.parametrize("solver", ["branch_and_bound", "greedy", "milp"])
    def test_trivial_view(self, solver):
        profile = StrategyProfile({0: set(), 1: {2}, 2: set()})
        game = MaxNCG(0.7, k=2)
        expected = _frozen_best_response_max(profile, 0, game, frozenset(), solver, False, None)
        for name in available_backends():
            actual = best_response_max(profile, 0, game, solver=solver, backend=name)
            _assert_same_reply(actual, expected)
            assert actual.strategy == frozenset() and actual.view_cost == 0.0
