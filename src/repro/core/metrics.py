"""Per-profile metrics collected by the experimental harness.

Section 5.1: "after each round, we collected several different features of
the current network such as: diameter, social cost, maximum/average degree,
minimum/maximum/average number of bought edges, minimum/maximum/average
number of vertices in the view of the players, along with others."  This
module computes exactly those features (plus the derived *quality of
equilibrium* and *unfairness ratio* used in Figures 6-9) for a strategy
profile.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict

import numpy as np

from repro.core.cost_models import STRICT, CostModel
from repro.core.games import FULL_KNOWLEDGE, GameSpec, UsageKind
from repro.core.social import social_optimum
from repro.core.strategies import StrategyProfile
from repro.graphs.traversal import reduce_bfs_distances
from repro.kernels import KernelBackend

__all__ = ["ProfileMetrics", "DistanceStatsAccumulator", "compute_profile_metrics"]


@dataclass(frozen=True)
class ProfileMetrics:
    """Snapshot of the network-level statistics of one strategy profile.

    ``unreachable_pairs`` counts the ordered (source, target) pairs with no
    connecting path; it is 0 on every connected profile and only ever
    non-zero under a disconnection-tolerant cost model (the strict model
    refuses to price a disconnected profile at all).  ``diameter`` is the
    largest *finite* distance in either case.
    """

    num_players: int
    num_edges: int
    social_cost: float
    quality: float  #: social cost / benchmark social optimum (Figures 6-7)
    diameter: int
    max_degree: int
    mean_degree: float
    min_bought_edges: int
    max_bought_edges: int
    mean_bought_edges: float
    min_view_size: int
    max_view_size: int
    mean_view_size: float
    max_player_cost: float
    min_player_cost: float
    unfairness: float  #: max player cost / min player cost (Figure 9)
    unreachable_pairs: int = 0

    def as_dict(self) -> dict[str, float]:
        return asdict(self)


class DistanceStatsAccumulator:
    """The per-source statistics the metrics need, from one fused BFS sweep.

    One instance holds everything :func:`compute_profile_metrics` would
    otherwise read off the dense distance matrix: per-source usage (max or
    sum of finite distances), per-source unreached-node counts, per-source
    view sizes at radius ``view_radius`` and the graph diameter.  They are
    adopted from :func:`~repro.graphs.traversal.reduce_bfs_distances` via
    :meth:`ingest_reduction`, so only ``O(n)`` per-source vectors ever
    exist — no distance row is materialised.

    The final per-source usages are produced by :meth:`usage_values`, which
    folds the unreached counts through ``cost_model`` in one vectorised pass
    — ``math.inf`` rows under the strict model, ``β``-penalised rows under a
    tolerant one — so disconnection semantics ride the same streaming sweep
    instead of a second pass over a dense matrix.
    """

    def __init__(
        self,
        num_sources: int,
        usage: UsageKind,
        view_radius: int | None = None,
        cost_model: CostModel = STRICT,
    ) -> None:
        self.usage = usage
        self.view_radius = view_radius
        self.cost_model = cost_model
        self.usage_rows = np.zeros(num_sources, dtype=np.int64)
        self.unreached_rows = np.zeros(num_sources, dtype=np.int64)
        self.view_sizes = np.zeros(num_sources, dtype=np.int64)
        self.diameter = 0

    @property
    def all_reached(self) -> np.ndarray:
        """Per-source full-reachability flags."""
        return self.unreached_rows == 0

    def ingest_reduction(
        self,
        ecc: np.ndarray,
        sums: np.ndarray,
        unreached: np.ndarray,
        view_sizes: np.ndarray,
    ) -> None:
        """Adopt the per-source vectors of a fused ``bfs_reduce`` sweep.

        The fused kernels emit exactly the numpy folds of the materialised
        distance rows (eccentricity == per-row finite max, etc.) without any
        ``(block_size, n)`` distance slice having existed.
        """
        self.usage_rows[:] = ecc if self.usage is UsageKind.MAX else sums
        self.unreached_rows[:] = unreached
        self.diameter = max(self.diameter, int(ecc.max(initial=0)))
        if self.view_radius is not None:
            self.view_sizes[:] = view_sizes

    def usage_values(self) -> np.ndarray:
        """Per-source usages with the cost model's unreachable penalty folded in."""
        if self.usage is UsageKind.MAX:
            return self.cost_model.fold_max(self.usage_rows, self.unreached_rows)
        return self.cost_model.fold_sum(self.usage_rows, self.unreached_rows)


def compute_profile_metrics(
    profile: StrategyProfile,
    game: GameSpec,
    include_views: bool = True,
    block_size: int | None = None,
    backend: str | KernelBackend | None = None,
) -> ProfileMetrics:
    """Compute the full metric snapshot of ``profile`` under ``game``.

    ``include_views=False`` skips the view-size statistics, which is useful
    when recording every round of a long dynamics run.  ``backend`` selects
    the BFS kernel backend (see :mod:`repro.kernels`); metrics are
    bit-identical across backends.

    Every distance-derived quantity (player usages, diameter, view sizes)
    comes out of a fused blocked ``bfs_reduce`` sweep
    (:func:`~repro.graphs.traversal.reduce_bfs_distances`): the kernel
    emits the per-source eccentricity / distance-sum / unreached-count /
    view-size vectors directly, so no ``(block_size, n)`` distance slice —
    let alone an ``(n, n)`` matrix — is ever materialised (a tracemalloc
    test pins this).  The numbers are bit-identical across backends,
    block sizes and thread counts because each source's BFS is
    independent and the fused folds mirror the materialised ones exactly.
    """
    graph = profile.graph()
    n = profile.num_players()
    degrees = list(graph.degrees().values()) or [0]
    bought_counts = [profile.num_bought_edges(player) for player in profile]
    bought = bought_counts or [0]

    want_views = include_views and n > 0 and game.k != FULL_KNOWLEDGE
    stats = DistanceStatsAccumulator(
        n,
        game.usage,
        view_radius=int(game.k) if want_views else None,
        cost_model=game.cost_model,
    )
    if n > 0:
        indptr, indices, order = graph.to_csr_arrays()
        stats.ingest_reduction(
            *reduce_bfs_distances(
                indptr,
                indices,
                np.arange(n, dtype=np.int64),
                view_radius=stats.view_radius,
                block_size=block_size,
                backend=backend,
            )
        )
    else:
        order = []
    usage_values = stats.usage_values()
    usages = {node: float(usage_values[i]) for i, node in enumerate(order)}
    costs = {
        player: game.alpha * count + usages[player]
        for player, count in zip(profile, bought_counts)
    }
    cost_values = list(costs.values()) or [0.0]
    max_cost = max(cost_values)
    min_cost = min(cost_values)
    unfairness = math.inf if min_cost == 0 else max_cost / min_cost

    unreachable_pairs = int(stats.unreached_rows.sum()) if n > 0 else 0
    if n > 0:
        if unreachable_pairs and not game.cost_model.is_finite:
            # The strict model does not price disconnected profiles; a
            # tolerant model reports them (finite costs, finite diameter
            # over the realised distances, unreachable_pairs > 0) instead.
            all_reached = stats.all_reached
            lonely = order[int(np.flatnonzero(~all_reached)[0])]
            raise ValueError(f"graph is disconnected from node {lonely!r}")
        graph_diameter = stats.diameter
    else:
        graph_diameter = 0

    if include_views and n > 0:
        if game.k == FULL_KNOWLEDGE:
            view_sizes = [n] * n
        else:
            view_sizes = stats.view_sizes.tolist()
    else:
        view_sizes = [0]

    total_cost = sum(cost_values)
    optimum = social_optimum(n, game.alpha, game.usage) if n >= 1 else 0.0
    quality = total_cost / optimum if optimum > 0 else 1.0

    return ProfileMetrics(
        num_players=n,
        num_edges=graph.number_of_edges(),
        social_cost=total_cost,
        quality=quality,
        diameter=graph_diameter,
        max_degree=max(degrees),
        mean_degree=sum(degrees) / len(degrees),
        min_bought_edges=min(bought),
        max_bought_edges=max(bought),
        mean_bought_edges=sum(bought) / len(bought),
        min_view_size=min(view_sizes),
        max_view_size=max(view_sizes),
        mean_view_size=sum(view_sizes) / len(view_sizes),
        max_player_cost=max_cost,
        min_player_cost=min_cost,
        unfairness=unfairness,
        unreachable_pairs=unreachable_pairs,
    )
