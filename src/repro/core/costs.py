"""Player and social costs (Eqs. (1) and (2)), parameterised by a cost model.

The cost of player ``u`` under profile ``σ`` is

``C_u(σ) = α · |σ_u| + usage_u(G(σ))``

where the usage term aggregates the distances from ``u``: the eccentricity
(MaxNCG) or the sum of distances to every other player (SumNCG).  What a
node ``u`` *cannot reach* contributes is not hard-coded here — it is decided
by the game's :class:`~repro.core.cost_models.CostModel` protocol:

* ``model.unreachable_distance`` — the stand-in distance of an unreachable
  node (``math.inf`` for the paper's strict semantics, a finite penalty
  ``β >= 1`` for the disconnection-tolerant variant);
* ``model.usage_max(finite_ecc, unreached)`` /
  ``model.usage_sum(finite_sum, unreached)`` — the scalar aggregates used
  below;
* ``model.fold_max`` / ``model.fold_sum`` — the vectorised counterparts the
  blocked metric accumulator (:mod:`repro.core.metrics`) folds in-stream;
* ``model.is_finite`` — whether disconnected configurations are priced at
  all (the robustness sweep branches on this to decide whether a
  disconnecting shock can be recovered or must be rolled back).

Under the default :data:`~repro.core.cost_models.STRICT` model this module
reproduces the paper exactly: if the induced network is disconnected from
``u`` the usage — and hence the cost — is infinite; the paper assumes the
players start on a connected network and infinite costs make disconnecting
moves never profitable, which is the behaviour the propositions of
Section 2 rely on.  Under a tolerant model
(:class:`~repro.core.cost_models.TolerantCosts`) each unreachable node is
charged as if it sat ``β`` hops away — ``usage = max(ecc_reached, β)`` in
MaxNCG, ``usage = sum_reached + β · #unreached`` in SumNCG — so component
splits and isolation attacks have well-defined finite costs and best
responses.  The two semantics agree bit-for-bit whenever everything is
reachable.
"""

from __future__ import annotations

import numpy as np

from repro.core.cost_models import STRICT, CostModel
from repro.core.games import GameSpec, UsageKind
from repro.core.strategies import StrategyProfile
from repro.graphs.graph import Graph, Node
from repro.graphs.traversal import bfs_distances, reduce_bfs_distances

__all__ = [
    "building_cost",
    "usage_cost",
    "usage_from_distances",
    "player_cost",
    "all_player_costs",
    "social_cost",
]


def building_cost(profile: StrategyProfile, player: Node, alpha: float) -> float:
    """``α · |σ_u|`` — what the player pays for the edges she bought."""
    return alpha * profile.num_bought_edges(player)


def usage_from_distances(
    distances: dict[Node, int],
    num_players: int,
    usage: UsageKind,
    cost_model: CostModel = STRICT,
) -> float:
    """Aggregate a distance dictionary into the usage cost.

    ``distances`` must include the player herself (distance 0).  Nodes
    missing from the dictionary (``num_players - len(distances)`` of them)
    are unreachable and charged at ``cost_model.unreachable_distance`` —
    ``math.inf`` under the default strict model.
    """
    unreached = num_players - len(distances)
    if usage is UsageKind.MAX:
        return cost_model.usage_max(
            float(max(distances.values(), default=0)), unreached
        )
    return cost_model.usage_sum(float(sum(distances.values())), unreached)


def usage_cost(
    graph: Graph, player: Node, usage: UsageKind, cost_model: CostModel = STRICT
) -> float:
    """Usage cost of ``player`` in ``graph`` (eccentricity or status)."""
    distances = bfs_distances(graph, player)
    return usage_from_distances(
        distances, graph.number_of_nodes(), usage, cost_model=cost_model
    )


def player_cost(
    profile: StrategyProfile,
    player: Node,
    game: GameSpec,
    graph: Graph | None = None,
) -> float:
    """Full cost ``C_u(σ)`` of a player.

    ``graph`` may be passed to avoid rebuilding the induced network when the
    caller already holds it (the dynamics loop does).
    """
    network = graph if graph is not None else profile.graph()
    return building_cost(profile, player, game.alpha) + usage_cost(
        network, player, game.usage, cost_model=game.cost_model
    )


def all_player_costs(profile: StrategyProfile, game: GameSpec) -> dict[Node, float]:
    """Return ``{player: C_u(σ)}`` for every player.

    One fused ``bfs_reduce`` sweep over every source yields each player's
    eccentricity, distance sum and unreached count, and the cost model's
    vectorised folds price them — the same reduction
    :func:`~repro.core.metrics.compute_profile_metrics` runs, bit-identical
    to calling :func:`player_cost` per player.
    """
    indptr, indices, order = profile.graph().to_csr_arrays()
    ecc, sums, unreached, _ = reduce_bfs_distances(
        indptr, indices, np.arange(len(order), dtype=np.int64)
    )
    if game.usage is UsageKind.MAX:
        usages = game.cost_model.fold_max(ecc, unreached)
    else:
        usages = game.cost_model.fold_sum(sums, unreached)
    usage = dict(zip(order, usages.tolist()))
    return {
        player: building_cost(profile, player, game.alpha) + usage[player]
        for player in profile
    }


def social_cost(profile: StrategyProfile, game: GameSpec) -> float:
    """Sum of all player costs (the welfare measure used for the PoA)."""
    return sum(all_player_costs(profile, game).values())
