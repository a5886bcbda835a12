"""Bayesian relaxation of the worst-case deviation rule (Section 6 outlook).

The paper's LKE concept is *maximin*: a player only deviates when the change
helps in **every** network compatible with her view (Eq. (3)).  The
conclusions explicitly flag the natural relaxation — "it would be interesting
to relax our worst-case approach, and analyze a NCG under a Bayesian
perspective" — and cite the belief-based treatment of Ballester Pla et al.
for graphical games.  This module implements that relaxation for both
MaxNCG and SumNCG.

A :class:`Belief` turns the player's view into a *distribution summary* of
what hides behind each frontier vertex: the expected number of invisible
vertices hanging behind it and the expected extra distance to reach them.
The expected cost of a strategy is then the in-view cost plus, for SumNCG, a
per-frontier-vertex penalty driven by those expectations (for MaxNCG the
penalty is the expected overshoot of the eccentricity beyond the frontier).
Three canonical beliefs are provided:

* :class:`EmptyWorldBelief` — nothing exists beyond the view.  The resulting
  behaviour coincides with evaluating strategies on the view alone, i.e. the
  most optimistic player.
* :class:`PessimisticBelief` — a large mass ``eta`` of vertices hangs behind
  every frontier vertex.  As ``eta → ∞`` the induced ordering of strategies
  converges to the paper's worst-case rule for SumNCG (forbidden moves become
  infinitely bad) — the tests check this consistency.
* :class:`GeometricGrowthBelief` — behind each frontier vertex the network
  keeps growing with a branching factor ``b`` for ``depth`` further levels,
  which models "the invisible part looks like the visible part".

A Bayesian player deviates whenever the *expected* cost of the new strategy
is lower; :func:`bayesian_best_single_move` and
:func:`is_bayesian_equilibrium` mirror the worst-case machinery, and the
extension experiment compares the equilibria reached by Bayesian and by
worst-case players on the same instances.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from repro.core.deviations import COST_EPS, modified_view_graph
from repro.core.games import GameSpec, UsageKind
from repro.core.strategies import StrategyProfile
from repro.core.views import View, extract_view
from repro.graphs.graph import Graph, Node
from repro.graphs.traversal import bfs_distances

__all__ = [
    "Belief",
    "EmptyWorldBelief",
    "PessimisticBelief",
    "GeometricGrowthBelief",
    "expected_cost",
    "bayesian_delta",
    "bayesian_best_response",
    "is_bayesian_equilibrium",
]


@dataclass(frozen=True)
class Belief:
    """Expectation summary of the invisible network behind one frontier vertex.

    Attributes
    ----------
    hidden_mass:
        Expected number of invisible vertices reachable only through the
        frontier vertex.
    expected_extra_distance:
        Expected distance from the frontier vertex to an invisible vertex
        (conditioned on at least one existing).
    """

    hidden_mass: float
    expected_extra_distance: float

    def __post_init__(self) -> None:
        if self.hidden_mass < 0:
            raise ValueError("hidden_mass must be non-negative")
        if self.expected_extra_distance < 0:
            raise ValueError("expected_extra_distance must be non-negative")


class EmptyWorldBelief:
    """The player believes the network coincides with her view."""

    def for_frontier_vertex(self, view: View, vertex: Node) -> Belief:
        return Belief(hidden_mass=0.0, expected_extra_distance=0.0)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "EmptyWorldBelief()"


class PessimisticBelief:
    """A fixed mass ``eta`` of invisible vertices hangs behind every frontier vertex.

    ``eta`` plays the role of the ``η`` adversary mass in the proof of
    Proposition 2.2; with a large ``eta`` the Bayesian player behaves like
    the paper's worst-case player on SumNCG.
    """

    def __init__(self, eta: float = 1.0, extra_distance: float = 1.0) -> None:
        if eta < 0:
            raise ValueError("eta must be non-negative")
        if extra_distance < 0:
            raise ValueError("extra_distance must be non-negative")
        self.eta = float(eta)
        self.extra_distance = float(extra_distance)

    def for_frontier_vertex(self, view: View, vertex: Node) -> Belief:
        return Belief(hidden_mass=self.eta, expected_extra_distance=self.extra_distance)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"PessimisticBelief(eta={self.eta:g}, extra_distance={self.extra_distance:g})"


class GeometricGrowthBelief:
    """The invisible part keeps branching like the visible part.

    Behind a frontier vertex of degree ``d`` (inside the view), the player
    expects ``(d - 1) + (d - 1)·b + ... `` further vertices over ``depth``
    additional levels with branching factor ``b``; the expected extra
    distance is the mass-weighted mean level.
    """

    def __init__(self, branching: float | None = None, depth: int = 3) -> None:
        if branching is not None and branching < 0:
            raise ValueError("branching must be non-negative")
        if depth < 1:
            raise ValueError("depth must be at least 1")
        self.branching = branching
        self.depth = depth

    def for_frontier_vertex(self, view: View, vertex: Node) -> Belief:
        if self.branching is not None:
            base = self.branching
        else:
            # Estimate the branching factor from the vertex's visible degree:
            # one of its edges points back towards the observer.
            base = max(float(view.subgraph.degree(vertex)) - 1.0, 0.0)
        if base == 0.0:
            return Belief(hidden_mass=0.0, expected_extra_distance=0.0)
        masses = [base**level for level in range(1, self.depth + 1)]
        total = sum(masses)
        mean_level = sum(level * mass for level, mass in enumerate(masses, start=1)) / total
        return Belief(hidden_mass=total, expected_extra_distance=mean_level)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"GeometricGrowthBelief(branching={self.branching!r}, depth={self.depth})"


# ----------------------------------------------------------------------
# Expected cost of a strategy under a belief
# ----------------------------------------------------------------------
def expected_cost(
    view: View,
    strategy: frozenset[Node] | set[Node],
    game: GameSpec,
    belief,
    graph: Graph | None = None,
) -> float:
    """Expected cost of ``strategy`` under ``belief``.

    The in-view part is computed exactly on the modified view; the invisible
    part adds, for every frontier vertex ``f`` with belief ``(mass, extra)``:

    * SumNCG: ``mass * (d'(u, f) + extra)`` — each expected hidden vertex is
      reached through ``f``;
    * MaxNCG: the eccentricity becomes at least ``d'(u, f) + extra`` whenever
      ``mass > 0`` — the expected worst hidden vertex behind ``f``.

    A strategy that disconnects a frontier vertex carrying positive hidden
    mass has infinite expected cost (the hidden vertices become unreachable),
    matching the connectivity convention of the exact game.
    """
    network = graph if graph is not None else modified_view_graph(view, strategy)
    distances = bfs_distances(network, view.player)
    if len(distances) < network.number_of_nodes():
        return math.inf

    building = game.alpha * len(strategy)
    if game.usage is UsageKind.MAX:
        usage = float(max(distances.values(), default=0))
    else:
        usage = float(sum(distances.values()))

    for frontier_vertex in sorted(view.frontier, key=repr):
        belief_summary: Belief = belief.for_frontier_vertex(view, frontier_vertex)
        if belief_summary.hidden_mass <= 0:
            continue
        reach = distances.get(frontier_vertex)
        if reach is None:
            return math.inf
        hidden_distance = reach + belief_summary.expected_extra_distance
        if game.usage is UsageKind.MAX:
            usage = max(usage, hidden_distance)
        else:
            usage += belief_summary.hidden_mass * hidden_distance
    return building + usage


def bayesian_delta(
    view: View,
    current_strategy: frozenset[Node] | set[Node],
    new_strategy: frozenset[Node] | set[Node],
    game: GameSpec,
    belief,
) -> float:
    """Expected cost change of switching strategies (negative = improvement)."""
    old_cost = expected_cost(view, current_strategy, game, belief)
    new_cost = expected_cost(view, new_strategy, game, belief)
    if math.isinf(old_cost) and math.isinf(new_cost):
        return 0.0
    return new_cost - old_cost


# ----------------------------------------------------------------------
# Bayesian best response and equilibrium
# ----------------------------------------------------------------------
def bayesian_best_response(
    profile: StrategyProfile,
    player: Node,
    game: GameSpec,
    belief,
    max_candidates: int = 14,
    view: View | None = None,
) -> tuple[frozenset[Node], float]:
    """Exact Bayesian best response by enumeration over the strategy space.

    Returns ``(strategy, expected_cost)``; intended for the modest view sizes
    of the extension experiments.  Raises :class:`ValueError` when the
    strategy space exceeds ``max_candidates`` (the enumeration is
    exponential).
    """
    if view is None:
        view = extract_view(profile, player, game.k)
    candidates = sorted(view.strategy_space, key=repr)
    if len(candidates) > max_candidates:
        raise ValueError(
            f"strategy space has {len(candidates)} nodes > max_candidates={max_candidates}"
        )
    current = profile.strategy(player)
    best_strategy = current
    best_cost = expected_cost(view, current, game, belief)
    for size in range(len(candidates) + 1):
        for combo in itertools.combinations(candidates, size):
            candidate_strategy = frozenset(combo)
            if candidate_strategy == current:
                continue
            cost = expected_cost(view, candidate_strategy, game, belief)
            if cost < best_cost - COST_EPS:
                best_cost = cost
                best_strategy = candidate_strategy
    return best_strategy, best_cost


def is_bayesian_equilibrium(
    profile: StrategyProfile,
    game: GameSpec,
    belief,
    max_candidates: int = 14,
) -> bool:
    """Whether no player can lower her *expected* cost (under ``belief``).

    Note that the Bayesian equilibrium concept neither contains nor is
    contained in the LKE set in general: an optimistic belief may open
    deviations the worst-case rule forbids, while a heavy pessimistic belief
    can freeze moves a worst-case player would happily take in MaxNCG.
    """
    for player in profile:
        view = extract_view(profile, player, game.k)
        current = profile.strategy(player)
        current_cost = expected_cost(view, current, game, belief)
        best_strategy, best_cost = bayesian_best_response(
            profile, player, game, belief, max_candidates=max_candidates, view=view
        )
        if best_strategy != current and best_cost < current_cost - COST_EPS:
            return False
    return True
