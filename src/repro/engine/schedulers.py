"""Pluggable activation schedulers for the dynamics engine.

The paper studies two activation policies — the deterministic round-robin
(``fixed``) and a per-round reshuffle (``shuffled``).  The engine keeps both
(bit-compatible with the legacy loop) and adds three new scenario modes:

* ``random_sequential`` — each of the ``n`` activations of a round draws a
  player uniformly at random (with replacement), the classic asynchronous
  dynamics model;
* ``max_improvement`` — always activate the player with the largest
  currently available improvement (greedy steepest-descent dynamics);
* ``parallel_batch`` — compute best responses for *all* players against the
  round-start profile and apply a maximal set of non-conflicting moves, a
  synchronous-update model.

A scheduler owns the *intra-round* policy only; the engine keeps the
round loop, cycle detection and bookkeeping, so every mode produces a
standard :class:`~repro.core.dynamics.DynamicsResult`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Sequence
from typing import TYPE_CHECKING

from repro.core.best_response import BestResponse
from repro.graphs.graph import Node

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.engine.core import DynamicsEngine

__all__ = [
    "Scheduler",
    "FixedScheduler",
    "ShuffledScheduler",
    "RandomSequentialScheduler",
    "MaxImprovementScheduler",
    "ParallelBatchScheduler",
    "SCHEDULERS",
    "make_scheduler",
]


class Scheduler(ABC):
    """Intra-round activation policy.

    ``detects_cycles`` tells the engine whether an end-of-round profile
    repeat is evidence of divergence (deterministic-ish schedules) or just
    bad luck (randomised sequential activation), in which case the run
    keeps going until ``max_rounds``.

    ``certifies_convergence`` says whether a zero-change round proves an
    equilibrium (every player was activated and declined to move).  When
    ``False`` the engine follows a quiet round with an explicit
    :meth:`repro.engine.DynamicsEngine.certify` sweep over all players —
    cheap, since it rides the best-response memo — before declaring
    convergence; either way :attr:`DynamicsResult.certified` is only set
    once a full no-improving-deviation pass stands behind the result.
    """

    name: str = "abstract"
    detects_cycles: bool = True
    certifies_convergence: bool = True

    @abstractmethod
    def run_round(self, engine: "DynamicsEngine", round_index: int) -> int:
        """Execute one round on ``engine`` and return the number of changes."""


class _SequentialScheduler(Scheduler):
    """Common loop for schedulers that activate one player at a time."""

    def round_order(
        self, engine: "DynamicsEngine", round_index: int
    ) -> Sequence[Node]:
        raise NotImplementedError

    def run_round(self, engine: "DynamicsEngine", round_index: int) -> int:
        changes = 0
        for player in self.round_order(engine, round_index):
            if engine.activate(player):
                changes += 1
        return changes


class FixedScheduler(_SequentialScheduler):
    """The paper's deterministic round-robin: same order every round."""

    name = "fixed"

    def round_order(self, engine, round_index):
        return engine.base_order


class ShuffledScheduler(_SequentialScheduler):
    """Round-robin with a fresh random order each round (paper's ablation)."""

    name = "shuffled"

    def round_order(self, engine, round_index):
        order = list(engine.base_order)
        engine.rng.shuffle(order)
        return order


class RandomSequentialScheduler(_SequentialScheduler):
    """``n`` uniform random activations (with replacement) per round.

    A round of all-misses does not certify an equilibrium the way a full
    round-robin pass does (an improving player may simply never have been
    drawn), so ``certifies_convergence = False`` makes the engine confirm a
    quiet round with an explicit ``engine.certify()`` sweep before
    reporting convergence — ``DynamicsResult`` therefore never carries a
    ``converged=True, certified=True`` verdict off the back of sampling
    luck; profile repeats are likewise not evidence of a best-response
    cycle, hence ``detects_cycles = False``.
    """

    name = "random_sequential"
    detects_cycles = False
    certifies_convergence = False

    def round_order(self, engine, round_index):
        players = engine.base_order
        return [engine.rng.choice(players) for _ in players]


class MaxImprovementScheduler(Scheduler):
    """Steepest-descent: repeatedly activate the largest-gain player.

    Each round performs at most ``n`` activations; the round (and the run)
    ends when no player has an improving move, which *does* certify an
    equilibrium.  The per-activation argmax scan is cheap because the
    engine memoises best responses for players whose view region was not
    touched by the previous move.
    """

    name = "max_improvement"

    def run_round(self, engine: "DynamicsEngine", round_index: int) -> int:
        changes = 0
        for _ in engine.base_order:
            best_player: Node | None = None
            best_gain = 0.0
            for player in engine.base_order:
                response = engine.peek_response(player)
                if response.is_improving and response.improvement > best_gain:
                    best_gain = response.improvement
                    best_player = player
            if best_player is None:
                break
            engine.activate(best_player)
            changes += 1
        return changes


class ParallelBatchScheduler(Scheduler):
    """Synchronous updates: batch-compute responses, apply non-conflicting ones.

    All best responses are evaluated against the round-start profile.
    Moves are then applied in decreasing-improvement order, skipping any
    player whose view region was dirtied by an earlier application in the
    same batch (her round-start response may be stale).  Skipped players
    simply retry next round; a round with no applicable move is an
    equilibrium certificate identical to the sequential case, because
    every response was computed against the same profile nobody managed
    to change.

    With ``dirty_only=True`` (the default) the batch is dirty-region
    aware: a player whose view content token *and* strategy are unchanged
    since her last evaluation still has a valid memoised best response — a
    pure function of exactly that pair — so only invalidated players are
    re-evaluated.  In quiet late rounds this shrinks the batch to the
    handful of players around the previous round's moves; trajectories are
    identical to the round-start variant (``dirty_only=False``, the
    reference the tests compare against) because the reused responses
    equal what a re-evaluation would have computed.
    ``evaluated_last_round`` / ``reused_last_round`` expose the split for
    tests and instrumentation.
    """

    name = "parallel_batch"

    def __init__(self, dirty_only: bool = True) -> None:
        self.dirty_only = dirty_only
        #: Players whose best response was recomputed in the latest round.
        self.evaluated_last_round: list[Node] = []
        #: Players served from the engine memo in the latest round.
        self.reused_last_round: list[Node] = []

    def run_round(self, engine: "DynamicsEngine", round_index: int) -> int:
        players = engine.base_order
        # Settle every dirty view up front: the memo validity test below
        # needs settled tokens.
        engine.views.refresh_dirty()
        responses: dict[Node, BestResponse] = {}
        stale: list[Node] = []
        if self.dirty_only:
            for player in players:
                cached = engine.cached_response(player)
                if cached is None:
                    stale.append(player)
                else:
                    responses[player] = cached
        else:
            stale = list(players)
        self.evaluated_last_round = list(stale)
        self.reused_last_round = [p for p in players if p in responses]
        engine._m_responses_reused.inc(len(self.reused_last_round))
        for player in stale:
            responses[player] = engine.peek_response(player)
        rank = {player: position for position, player in enumerate(players)}
        moves = [
            (player, responses[player])
            for player in players
            if responses[player].is_improving
        ]
        moves.sort(key=lambda move: (-move[1].improvement, rank[move[0]]))
        start_tokens = {player: engine.view_token(player) for player, _ in moves}
        applied = 0
        for player, response in moves:
            if engine.view_token(player) != start_tokens[player]:
                continue  # conflict: an earlier move touched this player's view
            engine.apply_response(player, response)
            applied += 1
        return applied


#: Registry keyed by the ``ordering`` string of ``best_response_dynamics``.
SCHEDULERS: dict[str, type[Scheduler]] = {
    FixedScheduler.name: FixedScheduler,
    ShuffledScheduler.name: ShuffledScheduler,
    RandomSequentialScheduler.name: RandomSequentialScheduler,
    MaxImprovementScheduler.name: MaxImprovementScheduler,
    ParallelBatchScheduler.name: ParallelBatchScheduler,
}


def make_scheduler(name: str) -> Scheduler:
    """Instantiate a scheduler by registry name."""
    try:
        cls = SCHEDULERS[name]
    except KeyError as exc:
        raise ValueError(
            f"unknown scheduler {name!r}; available: {sorted(SCHEDULERS)}"
        ) from exc
    return cls()
