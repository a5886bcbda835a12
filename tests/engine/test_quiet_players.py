"""Skipping quiet players changes nothing a run reports.

The sequential schedulers skip every player in ``DynamicsEngine.quiet``
(her memoised answer for her current view and strategy is non-improving),
and ``run`` reads ``certified_exact`` off ``quiet``, which holds every
player once a run converges (memo hits read through ``cached_response``
included, as ``parallel_batch`` reads them).  A frozen copy of the former round loop — every drawn player
activated, ``certified_exact`` from a peek sweep over all players — must
give the same trajectory (the profile after every round), ``rounds``,
``converged``, ``cycled``, ``certified``, ``certified_exact`` and
``responses_computed``, for all five schedulers and both games, on the
first run and on a warm replay after a perturbation.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cost_models import TolerantCosts
from repro.core.games import FULL_KNOWLEDGE, MaxNCG, SumNCG
from repro.engine.core import DynamicsEngine
from repro.engine.schedulers import SCHEDULERS, _SequentialScheduler
from repro.graphs.generators.erdos_renyi import owned_connected_gnp_graph
from repro.graphs.generators.trees import random_owned_tree


def _frozen_round(engine, round_index):
    """The former round: every drawn player activated."""
    scheduler = engine.scheduler
    if not isinstance(scheduler, _SequentialScheduler):
        return scheduler.run_round(engine, round_index)
    return sum(engine.activate(player) for player in scheduler.round_order(engine, round_index))


def _frozen_run(engine):
    """The former ``run`` loop, metrics left out, with a peek sweep."""
    trajectory = []
    seen = {engine.state.canonical_key()}
    rounds, converged, certified, exact, cycled = 0, False, False, False, False
    engine.views.refresh_dirty()
    for round_index in range(1, engine.max_rounds + 1):
        rounds = round_index
        changes = _frozen_round(engine, round_index)
        trajectory.append(engine.state.canonical_key())
        if changes == 0:
            scheduler = engine.scheduler
            if (
                not scheduler.certifies_convergence
                and not engine.certify(stop_at_first=True).is_equilibrium
            ):
                continue
            converged = certified = True
            exact = all(engine.peek_response(p).exact for p in engine.base_order)
            rounds = round_index - 1
            break
        if engine.scheduler.detects_cycles:
            key = engine.state.canonical_key()
            if key in seen:
                cycled = True
                break
            seen.add(key)
    return trajectory, (rounds, converged, certified, exact, cycled, engine.responses_computed)


def _run(engine):
    trajectory = []
    result = engine.run(lambda e, i, c: trajectory.append(e.state.canonical_key()))
    summary = (
        result.rounds,
        result.converged,
        result.certified,
        result.certified_exact,
        result.cycled,
        engine.responses_computed,
    )
    return trajectory, summary


def _shortcut(engine, rng):
    """A perturbation every cost model admits: one added edge."""
    players = list(engine.base_order)
    player = rng.choice(players)
    strategy = engine.state.strategy(player)
    others = [p for p in players if p != player and p not in strategy]
    if others:
        engine.set_strategy(player, strategy | {rng.choice(others)})


@st.composite
def cases(draw):
    n = draw(st.integers(min_value=5, max_value=14))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    owned = (
        random_owned_tree(n, seed=seed)
        if draw(st.booleans())
        else owned_connected_gnp_graph(n, 0.3, seed=seed)
    )
    usage = draw(st.sampled_from([MaxNCG, SumNCG]))
    k = draw(st.sampled_from([1, 2, 3, FULL_KNOWLEDGE]))
    alpha = draw(st.sampled_from([0.3, 0.5, 1.0, 2.0, 4.0]))
    tolerant = draw(st.booleans())
    game = (
        usage(alpha, k=k, cost_model=TolerantCosts(beta=2.0 * n))
        if tolerant
        else usage(alpha, k=k)
    )
    solver = draw(st.sampled_from(["branch_and_bound", "greedy"]))
    scheduler = draw(st.sampled_from(sorted(SCHEDULERS)))
    return owned, game, solver, scheduler, seed


@given(cases())
@settings(max_examples=120, deadline=None)
def test_skipping_quiet_players_matches_the_frozen_loop(case):
    owned, game, solver, scheduler, seed = case
    engines = [
        DynamicsEngine(
            owned, game, solver=solver, scheduler=scheduler, max_rounds=12,
            seed=seed, collect_metrics=False,
        )
        for _ in range(2)
    ]
    actual, frozen = engines
    for replay in range(3):
        run = _run(actual)
        assert run == _frozen_run(frozen)
        if run[1][1]:  # converged
            assert set(actual.quiet) == set(actual.base_order)
        assert actual.state.canonical_key() == frozen.state.canonical_key()
        for engine in engines:
            _shortcut(engine, random.Random(f"{seed}:{replay}"))


def test_quiet_players_are_skipped_and_counted_as_reuses():
    engine = DynamicsEngine(random_owned_tree(24, seed=5), MaxNCG(0.5, k=2))
    engine.run()
    assert set(engine.quiet) == set(engine.base_order)
    computed, reused = engine.responses_computed, engine.responses_reused
    # One added edge: only the players around it leave ``quiet``.
    player = engine.base_order[0]
    target = next(p for p in engine.base_order[1:] if p not in engine.state.strategy(player))
    engine.set_strategy(player, engine.state.strategy(player) | {target})
    assert player not in engine.quiet and 0 < len(engine.quiet) < len(engine.base_order)
    skipped = len(engine.quiet)
    engine.scheduler.run_round(engine, 1)
    assert engine.responses_reused - reused >= skipped
    assert engine.responses_computed > computed
