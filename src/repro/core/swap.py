"""Limited-move variants: swap games and greedy (single-edge) dynamics.

The paper's related-work section points at two prominent ways of *limiting
the modification a player can do on her current strategy*:

* the **swap game** of Alon et al. ("Basic network creation games", cited as
  [Alon et al. 2013]), where a move replaces one owned edge ``(u, v)`` by
  another edge ``(u, w)`` — the number of bought edges never changes; and
* the **greedy game** of Lenzner ("Greedy selfish network creation"), where a
  move adds one edge, deletes one owned edge, or swaps one owned edge.

Both are natural restrictions of the best-response dynamics studied in
Section 5 and, crucially, they compose with the paper's locality model
unchanged: the mover evaluates her move inside her k-neighbourhood view with
exactly the worst-case semantics of Propositions 2.1/2.2 (the propositions
only constrain how a *given* strategy change is evaluated, not which changes
are allowed).  This module provides the corresponding move enumeration,
equilibrium notions (swap equilibrium / greedy equilibrium, under full or
local knowledge) and round-robin dynamics that mirror
:func:`repro.core.dynamics.best_response_dynamics`.

These variants are exercised by the ablation experiments: they quantify how
much of the equilibrium quality measured in Figures 6-7 is attributable to
the *richness* of the strategy space rather than to the knowledge radius.
"""

from __future__ import annotations

import math
import random
from collections.abc import Iterator
from dataclasses import dataclass, field

from repro.core.deviations import COST_EPS, worst_case_delta
from repro.core.games import GameSpec
from repro.core.metrics import ProfileMetrics, compute_profile_metrics
from repro.core.strategies import StrategyProfile
from repro.core.views import View, extract_view
from repro.graphs.generators.base import OwnedGraph
from repro.graphs.graph import Node

__all__ = [
    "MoveKind",
    "Move",
    "enumerate_swap_moves",
    "enumerate_greedy_moves",
    "best_local_move",
    "is_swap_equilibrium",
    "is_greedy_equilibrium",
    "LocalMoveRecord",
    "LocalMoveDynamicsResult",
    "local_move_dynamics",
    "swap_dynamics",
    "greedy_dynamics",
]


class MoveKind:
    """String constants naming the allowed elementary moves."""

    ADD = "add"
    DELETE = "delete"
    SWAP = "swap"


@dataclass(frozen=True)
class Move:
    """One elementary strategy modification of a single player.

    ``added`` / ``removed`` hold at most one node each; the resulting
    strategy is ``(σ_u - removed) | added``.
    """

    player: Node
    kind: str
    added: frozenset[Node]
    removed: frozenset[Node]

    def apply(self, strategy: frozenset[Node]) -> frozenset[Node]:
        """Return the strategy after applying the move."""
        return (strategy - self.removed) | self.added


def _swap_candidates(view: View, strategy: frozenset[Node]) -> list[Node]:
    """Visible nodes the player may buy an edge towards but currently does not."""
    return sorted(
        (node for node in view.strategy_space if node not in strategy), key=repr
    )


def enumerate_swap_moves(view: View, strategy: frozenset[Node]) -> Iterator[Move]:
    """Yield every single-edge swap move available inside the view.

    A swap replaces one owned edge by an edge towards a visible non-neighbour;
    the building cost is unchanged, so swap moves are evaluated purely on the
    usage cost.
    """
    player = view.player
    additions = _swap_candidates(view, strategy)
    for removed in sorted(strategy, key=repr):
        for added in additions:
            yield Move(
                player=player,
                kind=MoveKind.SWAP,
                added=frozenset({added}),
                removed=frozenset({removed}),
            )


def enumerate_greedy_moves(view: View, strategy: frozenset[Node]) -> Iterator[Move]:
    """Yield every single add, single delete and single swap move.

    This is the greedy (Lenzner-style) move set; it strictly contains the
    swap moves.
    """
    player = view.player
    additions = _swap_candidates(view, strategy)
    for added in additions:
        yield Move(
            player=player,
            kind=MoveKind.ADD,
            added=frozenset({added}),
            removed=frozenset(),
        )
    for removed in sorted(strategy, key=repr):
        yield Move(
            player=player,
            kind=MoveKind.DELETE,
            added=frozenset(),
            removed=frozenset({removed}),
        )
    yield from enumerate_swap_moves(view, strategy)


_MOVE_ENUMERATORS = {
    "swap": enumerate_swap_moves,
    "greedy": enumerate_greedy_moves,
}


def best_local_move(
    profile: StrategyProfile,
    player: Node,
    game: GameSpec,
    move_set: str = "greedy",
    view: View | None = None,
) -> tuple[Move | None, float]:
    """Return the best improving elementary move of ``player`` (or ``None``).

    The move is evaluated with the worst-case LKE semantics
    (:func:`repro.core.deviations.worst_case_delta`), so under SumNCG the
    Proposition 2.2 forbidden moves are never selected.  The second element of
    the returned pair is the worst-case cost change of the chosen move
    (negative) or ``0.0`` when no improving move exists.
    """
    if move_set not in _MOVE_ENUMERATORS:
        raise ValueError(f"unknown move_set {move_set!r}; choose from {sorted(_MOVE_ENUMERATORS)}")
    if view is None:
        view = extract_view(profile, player, game.k)
    current = profile.strategy(player)
    best_move: Move | None = None
    best_delta = 0.0
    for move in _MOVE_ENUMERATORS[move_set](view, current):
        delta = worst_case_delta(view, current, move.apply(current), game)
        if math.isinf(delta):
            continue
        if delta < best_delta - COST_EPS:
            best_delta = delta
            best_move = move
    return best_move, (best_delta if best_move is not None else 0.0)


def is_swap_equilibrium(profile: StrategyProfile, game: GameSpec) -> bool:
    """Whether no player has an improving single-edge swap (in the LKE sense)."""
    return _is_local_move_equilibrium(profile, game, move_set="swap")


def is_greedy_equilibrium(profile: StrategyProfile, game: GameSpec) -> bool:
    """Whether no player has an improving add / delete / swap move."""
    return _is_local_move_equilibrium(profile, game, move_set="greedy")


def _is_local_move_equilibrium(
    profile: StrategyProfile, game: GameSpec, move_set: str
) -> bool:
    for player in profile:
        move, _ = best_local_move(profile, player, game, move_set=move_set)
        if move is not None:
            return False
    return True


# ----------------------------------------------------------------------
# Dynamics
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class LocalMoveRecord:
    """Summary of one round of a limited-move dynamics."""

    round_index: int
    num_changes: int
    moves_by_kind: dict[str, int]
    metrics: ProfileMetrics | None


@dataclass
class LocalMoveDynamicsResult:
    """Outcome of a swap / greedy dynamics run."""

    game: GameSpec
    move_set: str
    initial_profile: StrategyProfile
    final_profile: StrategyProfile
    converged: bool
    cycled: bool
    rounds: int
    total_changes: int
    moves_by_kind: dict[str, int] = field(default_factory=dict)
    round_records: list[LocalMoveRecord] = field(default_factory=list)
    initial_metrics: ProfileMetrics | None = None
    final_metrics: ProfileMetrics | None = None

    def quality_of_equilibrium(self) -> float:
        """Social cost of the final profile over the benchmark optimum."""
        if self.final_metrics is None:
            raise ValueError("final metrics were not collected")
        return self.final_metrics.quality


def _coerce_profile(initial: StrategyProfile | OwnedGraph) -> StrategyProfile:
    if isinstance(initial, StrategyProfile):
        return initial
    if isinstance(initial, OwnedGraph):
        return StrategyProfile.from_owned_graph(initial)
    raise TypeError(
        f"initial must be a StrategyProfile or an OwnedGraph, got {type(initial).__name__}"
    )


def local_move_dynamics(
    initial: StrategyProfile | OwnedGraph,
    game: GameSpec,
    move_set: str = "greedy",
    max_rounds: int = 200,
    collect_round_metrics: bool = False,
    ordering: str = "fixed",
    seed: int | None = None,
) -> LocalMoveDynamicsResult:
    """Round-robin dynamics where players apply their best *elementary* move.

    The protocol mirrors :func:`repro.core.dynamics.best_response_dynamics`
    (fixed round-robin order, stop on a change-free round, cycle detection on
    end-of-round profiles) but each player is restricted to the given
    ``move_set`` ("swap" or "greedy").
    """
    if move_set not in _MOVE_ENUMERATORS:
        raise ValueError(f"unknown move_set {move_set!r}; choose from {sorted(_MOVE_ENUMERATORS)}")
    if ordering not in {"fixed", "shuffled"}:
        raise ValueError("ordering must be 'fixed' or 'shuffled'")
    profile = _coerce_profile(initial)
    rng = random.Random(seed)
    base_order = profile.players()

    initial_metrics = compute_profile_metrics(profile, game)
    seen_profiles: set[tuple] = {profile.canonical_key()}
    round_records: list[LocalMoveRecord] = []
    moves_by_kind: dict[str, int] = {MoveKind.ADD: 0, MoveKind.DELETE: 0, MoveKind.SWAP: 0}
    total_changes = 0
    converged = False
    cycled = False
    rounds_run = 0

    for round_index in range(1, max_rounds + 1):
        rounds_run = round_index
        order = list(base_order)
        if ordering == "shuffled":
            rng.shuffle(order)
        changes_this_round = 0
        round_moves: dict[str, int] = {MoveKind.ADD: 0, MoveKind.DELETE: 0, MoveKind.SWAP: 0}
        for player in order:
            move, _ = best_local_move(profile, player, game, move_set=move_set)
            if move is None:
                continue
            new_strategy = move.apply(profile.strategy(player))
            profile = profile.with_strategy(player, new_strategy)
            changes_this_round += 1
            round_moves[move.kind] += 1
            moves_by_kind[move.kind] += 1
        total_changes += changes_this_round
        if collect_round_metrics:
            round_records.append(
                LocalMoveRecord(
                    round_index=round_index,
                    num_changes=changes_this_round,
                    moves_by_kind=dict(round_moves),
                    metrics=compute_profile_metrics(profile, game),
                )
            )
        if changes_this_round == 0:
            converged = True
            rounds_run = round_index - 1
            break
        key = profile.canonical_key()
        if key in seen_profiles:
            cycled = True
            break
        seen_profiles.add(key)

    final_metrics = compute_profile_metrics(profile, game)
    return LocalMoveDynamicsResult(
        game=game,
        move_set=move_set,
        initial_profile=_coerce_profile(initial),
        final_profile=profile,
        converged=converged,
        cycled=cycled,
        rounds=rounds_run,
        total_changes=total_changes,
        moves_by_kind=moves_by_kind,
        round_records=round_records,
        initial_metrics=initial_metrics,
        final_metrics=final_metrics,
    )


def swap_dynamics(
    initial: StrategyProfile | OwnedGraph,
    game: GameSpec,
    **kwargs,
) -> LocalMoveDynamicsResult:
    """Round-robin dynamics restricted to single-edge swaps."""
    return local_move_dynamics(initial, game, move_set="swap", **kwargs)


def greedy_dynamics(
    initial: StrategyProfile | OwnedGraph,
    game: GameSpec,
    **kwargs,
) -> LocalMoveDynamicsResult:
    """Round-robin dynamics restricted to single add / delete / swap moves."""
    return local_move_dynamics(initial, game, move_set="greedy", **kwargs)
