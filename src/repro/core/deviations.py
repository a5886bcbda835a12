"""Deviation semantics under local knowledge (Propositions 2.1 and 2.2).

A player contemplating a strategy change cannot evaluate her true cost —
she does not see the whole network — so the paper has her compute the
*worst-case* cost difference ``∆(σ_u, σ'_u)`` over every network compatible
with her view (Eq. (3)), and deviate only when that worst case is a strict
improvement (``∆ < 0``).  The two propositions of Section 2 turn this
seemingly infinite maximisation into a finite computation:

* **MaxNCG (Prop. 2.1)** — the worst-case network is the view ``H`` itself,
  so ``∆ = α(|σ'_u| - |σ_u|) + ecc_{H'}(u) - ecc_H(u)`` where ``H'`` is the
  view with ``u``'s owned edges replaced by the new ones.
* **SumNCG (Prop. 2.2)** — a strategy that increases (within ``H'``) the
  distance to some frontier vertex (distance exactly ``k`` in ``H``) is never
  improving, because arbitrarily many invisible vertices could hang behind
  it; for every other strategy the worst case is again ``H``, with the status
  replacing the eccentricity.

In-view costs are evaluated under the game's
:class:`~repro.core.cost_models.CostModel`: with the paper's strict model a
move that disconnects part of the view costs ``math.inf`` (never improving),
while a tolerant model prices the abandoned vertices at ``β`` each, so
deliberately cutting an expensive branch loose can be a rational deviation.
The Proposition 2.2 frontier guard is kept *unchanged* under tolerant
models: pushing a frontier vertex farther away still risks unboundedly many
invisible vertices behind it, and a conservative rule stays sound (with a
small ``β`` it may exclude some genuinely improving disconnect-the-frontier
moves; the guard errs on the paper's side).
"""

from __future__ import annotations

import math

from repro.core.games import GameSpec, UsageKind
from repro.core.views import View
from repro.graphs.graph import Graph, Node
from repro.graphs.traversal import bfs_distances
from repro.kernels.common import COST_EPS

__all__ = [
    "COST_EPS",
    "modified_view_graph",
    "view_cost",
    "deviation_is_forbidden_sum",
    "worst_case_delta",
]

def modified_view_graph(view: View, new_strategy: frozenset[Node] | set[Node]) -> Graph:
    """Return ``H'``: the view with the player's owned edges replaced.

    Edges bought by *other* players towards the observer are untouched —
    the observer cannot sever them (link severance is unilateral on the
    owner's side only).
    """
    player = view.player
    modified = view.subgraph.copy()
    # Remove every edge the player owns, i.e. every incident edge except the
    # ones bought by the in-neighbours.
    for neighbour in list(modified.neighbors(player)):
        if neighbour not in view.buyers:
            modified.remove_edge(player, neighbour)
    for target in new_strategy:
        if target == player:
            raise ValueError("a player cannot buy an edge to herself")
        if not modified.has_node(target):
            raise ValueError(
                f"target {target!r} is outside the player's view and cannot be bought"
            )
        modified.add_edge(player, target)
    return modified


def view_cost(
    view: View,
    strategy: frozenset[Node] | set[Node],
    game: GameSpec,
    graph: Graph | None = None,
) -> float:
    """Cost of the observer *as measured inside her view* for a given strategy.

    ``graph`` may be passed when the caller already materialised the
    modified view; otherwise it is derived from ``strategy``.
    """
    network = graph if graph is not None else modified_view_graph(view, strategy)
    distances = bfs_distances(network, view.player)
    unreached = network.number_of_nodes() - len(distances)
    if game.usage is UsageKind.MAX:
        usage = game.cost_model.usage_max(
            float(max(distances.values(), default=0)), unreached
        )
    else:
        usage = game.cost_model.usage_sum(float(sum(distances.values())), unreached)
    return game.alpha * len(strategy) + usage


def deviation_is_forbidden_sum(
    view: View, new_strategy: frozenset[Node] | set[Node], graph: Graph | None = None
) -> bool:
    """Proposition 2.2 guard: does the move push a frontier vertex further away?

    Returns ``True`` when some frontier vertex ends up farther (possibly
    unreachable) in the modified view than it currently is, in which case the
    move can never be worst-case improving in SumNCG — arbitrarily many
    invisible vertices could hang behind that vertex.

    In the paper's k-neighbourhood views every frontier vertex sits at
    distance exactly ``k``, so "farther than before" and "beyond ``k``" are
    the same condition; phrasing the guard per-vertex lets the same rule
    serve the query-based view models of :mod:`repro.discovery`, whose
    frontier vertices sit at heterogeneous distances.
    """
    if not view.frontier:
        return False
    network = graph if graph is not None else modified_view_graph(view, new_strategy)
    distances = bfs_distances(network, view.player)
    for frontier_vertex in view.frontier:
        new_distance = distances.get(frontier_vertex, math.inf)
        reference = view.distances.get(frontier_vertex, view.k)
        if new_distance > reference:
            return True
    return False


def worst_case_delta(
    view: View,
    current_strategy: frozenset[Node] | set[Node],
    new_strategy: frozenset[Node] | set[Node],
    game: GameSpec,
) -> float:
    """``∆(σ_u, σ'_u)`` — the worst-case cost change of switching strategies.

    Positive values mean the switch can hurt in some compatible network;
    the LKE concept only lets players switch when the value is strictly
    negative.  ``math.inf`` encodes the SumNCG "forbidden" moves of
    Proposition 2.2 (the adversary can make the damage arbitrarily large).
    """
    modified = modified_view_graph(view, new_strategy)
    if game.usage is UsageKind.SUM and deviation_is_forbidden_sum(
        view, new_strategy, graph=modified
    ):
        return math.inf
    old_cost = view_cost(view, current_strategy, game)
    new_cost = view_cost(view, new_strategy, game, graph=modified)
    if math.isinf(new_cost) and math.isinf(old_cost):
        return 0.0
    return new_cost - old_cost

