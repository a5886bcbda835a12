"""The ``max_reply`` kernel equals the composed path it replaced.

:func:`repro.core.best_response.best_response_max` takes the all-pairs
distances of ``H − u`` from one ``bfs`` call and hands the rest of a
MaxNCG reply to the kernel backend's ``max_reply``: the incumbent's price
and the eccentricity-guess loop (one C call on the native backend; the
Python composed on numpy).  Both must agree bit for bit with a frozen
copy of the path as it stood before — context (:func:`max_cover_context`),
incumbent price (``_max_view_cost``), then the loop as it stood inside
``best_response_max`` — tie-breaks included:

* kernel level — the incumbent cost, the reply cost and the cover rows
  (in solver order) on every available backend, warm and cold, branch and
  bound and greedy, over random (often disconnected) graphs, random
  buyers and current rows, fractional ``α`` and ``β`` from strict
  (``inf``) to tolerant ``{1, 2.5, 40}``, with ``dist`` left untouched;
* reply level — strategy, view cost, incumbent cost and ``exact`` of
  ``best_response_max`` on ``extract_view`` views and on the engine's
  array views, on random profiles with random current strategies (so
  disconnected incumbents occur), buyers, every knowledge radius, both
  solvers, warm and cold, the strict model and tolerant ``β``, and the
  views with ``m ∈ {0, 1}`` other nodes; the incumbent cost also equals
  :func:`~repro.core.deviations.view_cost`, the definition priced by a
  BFS on the modified view;
* engine level — each MaxNCG memo miss is exactly one ``bfs`` and one
  ``max_reply`` call, with unchanged trajectories.
"""

import dataclasses
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.kernels as kernels
from repro.core.best_response import BestResponse, best_response_max
from repro.core.cost_models import TolerantCosts
from repro.core.deviations import COST_EPS, view_cost
from repro.core.games import FULL_KNOWLEDGE, MaxNCG
from repro.core.strategies import StrategyProfile
from repro.core.views import ArrayView, extract_view
from repro.engine.core import DynamicsEngine
from repro.graphs.generators.erdos_renyi import gnp_random_graph
from repro.graphs.generators.trees import random_owned_tree
from repro.graphs.traversal import batched_bfs_distances, distance_matrix
from repro.kernels import available_backends, get_backend, register_backend, resolve_backend
from repro.kernels.common import UNREACHABLE
from repro.solvers.set_cover import SetCoverInstance, solve_set_cover

ALPHAS = [0.25, 0.4, 0.5, 0.7, 1.0, 1.3, 2.0, 2.5, 3.7]
BETAS = [math.inf, 1.0, 2.5, 40.0]
SOLVERS = ["branch_and_bound", "greedy"]


# ----------------------------------------------------------------------
# The reference: the composed path as it stood before the fused kernel
# ----------------------------------------------------------------------
def _frozen_context(view):
    """``(order, dist, forced)`` of the former ``max_cover_context``."""
    if not isinstance(view, ArrayView):
        reduced = view.subgraph.without_node(view.player)
        dist, order = distance_matrix(reduced, backend="numpy")
        index = {node: i for i, node in enumerate(order)}
        forced = tuple(sorted(index[buyer] for buyer in view.buyers if buyer in index))
    else:
        nodes, _, indptr, indices, rows = view.arrays
        order = [view.labels[i] for i in nodes.tolist()]
        dist = batched_bfs_distances(indptr, indices, None, backend="numpy")
        forced = tuple(rows.tolist())
    return order, dist, forced


def _frozen_price(dist, forced, rows, size, alpha, beta):
    """The former ``_max_view_cost`` over context rows, ``usage_max`` inlined."""
    rows = list(rows) + list(forced)
    eccentricity, unreached = 0, dist.shape[0]
    if rows and unreached:
        minima = dist[rows].min(axis=0)
        farthest = int(minima.max())
        if farthest != UNREACHABLE:
            eccentricity, unreached = farthest + 1, 0
        else:
            reached = minima[minima != UNREACHABLE]
            if reached.size:
                eccentricity = int(reached.max()) + 1
            unreached -= reached.size
    usage = float(eccentricity) if unreached <= 0 else float(max(float(eccentricity), beta))
    return alpha * size + usage


def _frozen_loop(dist, forced, alpha, best_cost, warm_start, solver, usage_floor=0.0):
    """The former eccentricity-guess loop; returns ``(cost, rows | None)``."""
    best_selection = None
    previous_selected = None
    for h in range(1, dist.shape[0] + 1):
        usage = max(h, usage_floor)
        if usage >= best_cost - COST_EPS:
            break
        instance = SetCoverInstance(coverage=dist <= (h - 1), forced=forced)
        if warm_start:
            size_cap = (
                int(math.ceil((best_cost - COST_EPS - usage) / alpha))
                if math.isfinite(best_cost)
                else None
            )
            result = solve_set_cover(
                instance, method=solver, upper_bound=size_cap,
                warm_start=previous_selected, backend="numpy",
            )
        else:
            result = solve_set_cover(instance, method=solver, backend="numpy")
        if not result.feasible:
            continue
        previous_selected = result.selected
        cost = alpha * result.objective + usage
        if cost < best_cost - COST_EPS:
            best_cost = cost
            best_selection = result.selected
    return best_cost, best_selection


def _frozen_partial(dist, forced, alpha, beta, solver, warm_start, best_cost):
    """The former tolerant partial-cover regime; ``(cost, rows | None)``."""
    if dist.shape[0] == 0:
        return best_cost, None
    labels = (dist != UNREACHABLE).argmax(axis=1)
    forced_labels = {int(labels[i]) for i in forced}
    if not (set(int(label) for label in np.unique(labels)) - forced_labels):
        return best_cost, None
    if not forced:
        if beta < best_cost - COST_EPS:
            return beta, ()
        return best_cost, None
    keep = np.flatnonzero(np.isin(labels, sorted(forced_labels)))
    position = {int(original): pos for pos, original in enumerate(keep)}
    cost, selection = _frozen_loop(
        dist[np.ix_(keep, keep)], tuple(sorted(position[i] for i in forced)),
        alpha, best_cost, warm_start, solver, usage_floor=beta,
    )
    if selection is None:
        return best_cost, None
    return cost, tuple(int(keep[i]) for i in selection)


def _frozen_best_response_max(view, player, game, current, solver, warm_start):
    order, dist, forced = _frozen_context(view)
    index = {node: i for i, node in enumerate(order)}
    beta = game.cost_model.unreachable_distance
    current_cost = _frozen_price(
        dist, forced, [index[t] for t in current], len(current), game.alpha, beta
    )
    best_cost, selection = _frozen_loop(
        dist, forced, game.alpha, current_cost, warm_start, solver
    )
    if game.cost_model.is_finite:
        cost, partial = _frozen_partial(
            dist, forced, game.alpha, beta, solver, warm_start, best_cost
        )
        if partial is not None:
            best_cost, selection = cost, partial
    strategy = current if selection is None else frozenset(order[i] for i in selection)
    return BestResponse(
        player, strategy, best_cost, current_cost, solver != "greedy", view.size
    )


# ----------------------------------------------------------------------
# Kernel level
# ----------------------------------------------------------------------
@st.composite
def reply_inputs(draw):
    """``(indptr, indices, forced, current, alpha, beta)`` of a G(n, p)."""
    n = draw(st.integers(min_value=0, max_value=22))
    p = draw(st.sampled_from([0.08, 0.15, 0.25, 0.4, 0.7]))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    if n:
        indptr, indices, _ = gnp_random_graph(n, p, random.Random(seed)).to_csr_arrays()
    else:
        indptr, indices = np.zeros(1, dtype=np.int64), np.zeros(0, dtype=np.int64)
    rows = st.integers(0, max(n - 1, 0))
    forced = tuple(sorted(draw(st.sets(rows, max_size=3)))) if n else ()
    current = sorted(draw(st.sets(rows, max_size=4))) if n else []
    alpha = draw(st.sampled_from(ALPHAS))
    beta = draw(st.sampled_from(BETAS))
    return indptr, indices, forced, current, alpha, beta


def _all_pairs(indptr, indices):
    """The numpy backend's all-pairs distances of a CSR graph."""
    n = len(indptr) - 1
    if not n:
        return np.full((0, 0), UNREACHABLE, dtype=np.int32)
    return batched_bfs_distances(indptr, indices, None, backend="numpy")


class TestMaxReplyKernel:
    @given(reply_inputs(), st.booleans(), st.sampled_from(SOLVERS))
    @settings(max_examples=250, deadline=None)
    def test_every_backend_matches_the_frozen_loop(self, case, warm_start, solver):
        indptr, indices, forced, current, alpha, beta = case
        dist = _all_pairs(indptr, indices)
        current_cost = _frozen_price(dist, forced, current, len(current), alpha, beta)
        expected = [
            current_cost,
            *_frozen_loop(
                dist, forced, alpha, current_cost, warm_start and solver != "greedy", solver
            ),
        ]
        for name in available_backends():
            given_dist = dist.copy()
            actual = get_backend(name).max_reply(
                given_dist, forced, current, alpha, beta, warm_start, solver == "greedy"
            )
            assert list(actual) == expected, name
            assert np.array_equal(given_dist, dist), name

    def test_trivial_view_keeps_the_incumbent(self):
        for name in available_backends():
            for warm_start in (True, False):
                for greedy in (True, False):
                    reply = get_backend(name).max_reply(
                        np.empty((0, 0), dtype=np.int32), (), [], 1.0, math.inf,
                        warm_start, greedy,
                    )
                    assert reply == (0.0, 0.0, None)

    def test_disconnected_incumbent_gets_a_finite_reply(self):
        # Six isolated nodes, no buyers: only buying into all reconnects her.
        dist = _all_pairs(np.zeros(7, dtype=np.int64), np.zeros(0, dtype=np.int64))
        for name in available_backends():
            for greedy in (True, False):
                current_cost, cost, selection = get_backend(name).max_reply(
                    dist, (), [0], 0.5, math.inf, True, greedy
                )
                assert current_cost == math.inf
                assert math.isfinite(cost) and len(selection) == 6

    def test_tolerant_incumbent_is_priced_at_beta(self):
        # A path 0-1-2 and an isolated 3: playing {0} reaches three nodes
        # at eccentricity 3, and the abandoned one costs max(3, beta).
        dist = _all_pairs(
            np.array([0, 1, 3, 4, 4], dtype=np.int64), np.array([1, 0, 2, 1], dtype=np.int64)
        )
        for name in available_backends():
            for beta, usage in ((1.0, 3.0), (2.5, 3.0), (40.0, 40.0)):
                current_cost, _, _ = get_backend(name).max_reply(
                    dist, (), [0], 0.5, beta, True, False
                )
                assert current_cost == 0.5 + usage


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
    beta = draw(st.sampled_from(BETAS))
    alpha = draw(st.sampled_from(ALPHAS))
    game = (
        MaxNCG(alpha, k=k)
        if math.isinf(beta)
        else MaxNCG(alpha, k=k, cost_model=TolerantCosts(beta=beta))
    )
    space = sorted(extract_view(profile, player, k).strategy_space)
    current = frozenset(
        draw(st.one_of(st.just(profile.strategy(player)), st.sets(st.sampled_from(space))))
        if space
        else profile.strategy(player)
    )
    return profile, player, game, current


def _views(profile, player, game):
    """The player's ``extract_view`` view and the engine's array view."""
    engine = DynamicsEngine(profile, game, collect_metrics=False)
    return extract_view(profile, player, game.k), engine.views.get(player)


def _assert_same_reply(actual, expected, view, current, game):
    assert actual.current_view_cost == view_cost(view, current, game)
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
        for view in _views(profile, player, game):
            expected = _frozen_best_response_max(
                view, player, game, current, "branch_and_bound", warm_start
            )
            for name in available_backends():
                actual = best_response_max(
                    None, player, game, view=view, current_strategy=current,
                    warm_start=warm_start, backend=name,
                )
                _assert_same_reply(actual, expected, view, current, game)

    @given(reply_cases())
    @settings(max_examples=80, deadline=None)
    def test_greedy_ablation(self, case):
        profile, player, game, current = case
        for view in _views(profile, player, game):
            expected = _frozen_best_response_max(view, player, game, current, "greedy", False)
            for name in available_backends():
                actual = best_response_max(
                    None, player, game, solver="greedy", view=view,
                    current_strategy=current, backend=name,
                )
                _assert_same_reply(actual, expected, view, current, game)

    @pytest.mark.parametrize("solver", ["branch_and_bound", "greedy", "milp"])
    def test_trivial_view(self, solver):
        profile = StrategyProfile({0: set(), 1: {2}, 2: set()})
        game = MaxNCG(0.7, k=2)
        for view in _views(profile, 0, game):
            expected = _frozen_best_response_max(view, 0, game, frozenset(), solver, False)
            for name in available_backends():
                actual = best_response_max(
                    None, 0, game, solver=solver, view=view,
                    current_strategy=frozenset(), backend=name,
                )
                _assert_same_reply(actual, expected, view, frozenset(), game)
                assert actual.strategy == frozenset() and actual.view_cost == 0.0

    @pytest.mark.parametrize("solver", ["branch_and_bound", "greedy", "milp"])
    @pytest.mark.parametrize("beta", BETAS)
    def test_one_other_node(self, solver, beta):
        # m = 1 under full knowledge: her one neighbour, bought by her or by
        # the neighbour, or an isolated pair (priced at beta when tolerant).
        game = (
            MaxNCG(1.3, k=FULL_KNOWLEDGE)
            if math.isinf(beta)
            else MaxNCG(1.3, k=FULL_KNOWLEDGE, cost_model=TolerantCosts(beta=beta))
        )
        for strategies in ({0: {1}, 1: set()}, {0: set(), 1: {0}}, {0: set(), 1: set()}):
            profile = StrategyProfile(strategies)
            for view in _views(profile, 0, game):
                assert view.size == 2
                for current in (frozenset(), frozenset({1})):
                    expected = _frozen_best_response_max(view, 0, game, current, solver, False)
                    for name in available_backends():
                        actual = best_response_max(
                            None, 0, game, solver=solver, view=view,
                            current_strategy=current, backend=name,
                        )
                        _assert_same_reply(actual, expected, view, current, game)

    def test_array_view_refuses_what_the_context_refuses(self):
        profile = StrategyProfile({0: {1}, 1: {2}, 2: {3}, 3: set()})
        game = MaxNCG(1.0, k=1)
        for view in _views(profile, 0, game):
            with pytest.raises(ValueError, match="herself"):
                best_response_max(None, 0, game, view=view, current_strategy=frozenset({0}))
            with pytest.raises(ValueError, match="outside"):
                best_response_max(None, 0, game, view=view, current_strategy=frozenset({3}))


# ----------------------------------------------------------------------
# Engine level
# ----------------------------------------------------------------------
@pytest.fixture
def counting_backend():
    """The default backend counting its ``max_reply`` and ``bfs`` calls."""
    factories, built = dict(kernels._FACTORIES), dict(kernels._BUILT)
    base = resolve_backend()
    calls = {"max_reply": 0, "bfs": 0}

    def counted(name):
        def kernel(*args):
            calls[name] += 1
            return getattr(base, name)(*args)

        return kernel

    register_backend(
        "counting",
        lambda: dataclasses.replace(
            base, name="counting", **{name: counted(name) for name in calls}
        ),
    )
    try:
        yield calls
    finally:
        kernels._FACTORIES.clear()
        kernels._FACTORIES.update(factories)
        kernels._BUILT.clear()
        kernels._BUILT.update(built)


class TestEngineCalls:
    @pytest.mark.parametrize("solver", SOLVERS)
    @pytest.mark.parametrize(
        "game",
        [
            MaxNCG(0.5, k=2),
            MaxNCG(0.5, k=3, cost_model=TolerantCosts(beta=30.0)),
            MaxNCG(1.0, k=FULL_KNOWLEDGE),
        ],
    )
    def test_each_memo_miss_is_one_bfs_and_one_max_reply(self, counting_backend, game, solver):
        owned = random_owned_tree(18, seed=7)
        engine = DynamicsEngine(
            owned, game, solver=solver, max_rounds=20, kernel_backend="counting"
        )
        result = engine.run()
        assert result.total_changes > 0
        assert counting_backend["max_reply"] == engine.responses_computed > 0
        assert counting_backend["bfs"] == engine.responses_computed
        reference = DynamicsEngine(owned, game, solver=solver, max_rounds=20).run()
        assert (result.rounds, result.converged) == (reference.rounds, reference.converged)
        assert result.final_profile.canonical_key() == reference.final_profile.canonical_key()
