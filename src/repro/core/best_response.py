"""Best-response computation.

MaxNCG
------
Following Section 5.3 of the paper, a best response of player ``u`` is found
by (i) restricting attention to her view ``H`` (Proposition 2.1), (ii)
guessing the eccentricity ``h`` that ``u`` will have after the move, and
(iii) computing, for each guess, a minimum set of new edge targets such that
every other visible vertex lies within distance ``h - 1`` (inside
``H \\ {u}``) of a new target or of a vertex that already bought an edge
towards ``u``.  Step (iii) is a constrained minimum dominating set on the
``(h-1)``-th power of ``H \\ {u}`` and is solved exactly (MILP or
branch-and-bound) or greedily (ablation).  With branch and bound the whole
loop over ``h`` is one call of the kernel backend's ``max_reply``.

SumNCG
------
The paper does not run SumNCG experiments because the best response is
NP-hard even to approximate conveniently.  This module makes the sum game
engine-grade anyway: :func:`best_response` routes small strategy spaces
(``<=`` :data:`SUM_EXHAUSTIVE_LIMIT` candidates) through the exact
exhaustive enumeration and larger spaces through a hill-climbing local
search (flagged ``exact=False``).  The enumeration prices whole
subset-size classes, most promising usage lower bound first: the cheapest
reply found so far is a feasible incumbent, so every class whose bound
cannot beat it is skipped without pricing it.  Pruning never changes the
returned strategy, only the solve time — the priced classes are scanned in
canonical order either way — which is what lets
:class:`repro.engine.DynamicsEngine` memoise sum best responses per (view
token, strategy) exactly like the max game.

Both routines price candidates from one distance matrix: the player's
distances after a move are ``1 + min`` over the rows of ``H \\ {u}`` of her
new targets and her buyers, so a candidate's cost and its Proposition 2.2
frontier veto are a column minimum away (:class:`_SumEvaluator`), and a
subset-size class or a batch of hill-climb moves is priced in one
vectorised gather.  The costs are the same float expressions over the
same integers as :func:`~repro.core.deviations.worst_case_delta`, which
stays as the reference.

Cost models
-----------
Both games evaluate in-view costs under the game's
:class:`~repro.core.cost_models.CostModel`.  Under the strict model a move
that disconnects part of the view is never improving (infinite usage).
Under a tolerant model every abandoned vertex is priced at ``β``, and
:func:`best_response_max` gains a second, *partial-cover* search regime:
the reduced view ``H \\ {u}`` splits into connected components, components
containing a buyer are always reached (their edges exist regardless of
``u``'s strategy) and must be covered within the eccentricity guess, while
buyer-free components may be abandoned wholesale at a one-off ``max``
penalty of ``β`` — so isolation attacks and component splits have exact,
finite best responses.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
import warnings
from dataclasses import dataclass

import numpy as np

from repro.core.deviations import COST_EPS
from repro.core.games import GameSpec, UsageKind
from repro.core.strategies import StrategyProfile
from repro.core.views import ArrayView, View, extract_view
from repro.graphs.graph import Node
from repro.graphs.traversal import batched_bfs_distances, distance_matrix
from repro.kernels import KernelBackend, resolve_backend
from repro.kernels.common import UNREACHABLE
from repro.solvers.set_cover import (
    WARM_START_SOLVERS,
    SetCoverInstance,
    max_reply,
    solve_set_cover,
)

__all__ = [
    "ENGINE_DEFAULT_SOLVER",
    "SUM_EXHAUSTIVE_LIMIT",
    "BestResponse",
    "MaxCoverContext",
    "max_cover_context",
    "best_response_max",
    "best_response_sum_exhaustive",
    "best_response_sum_local_search",
    "best_response",
]

#: Default solver of the engine path (:class:`repro.engine.DynamicsEngine`,
#: :func:`repro.core.dynamics.best_response_dynamics` and the sweep
#: configuration).  Branch and bound is the only exact solver that consumes
#: the warm-start / upper-bound machinery, which is where the 5-600x
#: re-solve speedup of the scaling layer lives; ``milp`` stays available
#: opt-in for cross-checking.
ENGINE_DEFAULT_SOLVER: str = "branch_and_bound"

#: Largest SumNCG strategy space the :func:`best_response` dispatch solves
#: exactly (pruned exhaustive enumeration); beyond it the hill-climbing
#: local search answers, flagged ``exact=False``.
#: The enumeration prices ``O(2^m)`` strategies worst case, so
#: :func:`best_response_sum_exhaustive` warns whenever it is asked to
#: enumerate a space larger than this.
SUM_EXHAUSTIVE_LIMIT: int = 12


@dataclass(frozen=True)
class BestResponse:
    """Outcome of a best-response computation for one player.

    ``view_cost`` and ``current_view_cost`` are measured inside the player's
    view (which, by Propositions 2.1/2.2, is exactly how the player evaluates
    them); ``improvement = current_view_cost - view_cost`` is strictly
    positive iff the player has a profitable deviation in the LKE sense.
    """

    player: Node
    strategy: frozenset[Node]
    view_cost: float
    current_view_cost: float
    exact: bool
    view_size: int

    @property
    def improvement(self) -> float:
        return self.current_view_cost - self.view_cost

    @functools.cached_property
    def is_improving(self) -> bool:
        # Cached: a memoised reply is asked once per activation, every round.
        return self.improvement > COST_EPS


def _resolve_view_and_strategy(
    profile: StrategyProfile | None,
    player: Node,
    game: GameSpec,
    view: View | None,
    current_strategy: frozenset[Node] | None,
) -> tuple[View, frozenset[Node]]:
    """Resolve the (view, current strategy) pair a best response works from.

    Callers either hand over a profile (the classic path, which extracts the
    view from scratch) or inject both pieces directly — the incremental
    engine does the latter so cached views are reused without materialising
    a :class:`StrategyProfile` per activation.
    """
    if view is None:
        if profile is None:
            raise ValueError("either profile or view must be provided")
        view = extract_view(profile, player, game.k)
    if current_strategy is None:
        if profile is None:
            raise ValueError("either profile or current_strategy must be provided")
        current_strategy = profile.strategy(player)
    return view, current_strategy


@dataclass(frozen=True, eq=False)
class MaxCoverContext:
    """Distance structure of a player's view with the player removed.

    Everything a best response derives from the view *content* alone — the
    reduced-view distance matrix, its node order and the forced
    (other-endpoint buyer) candidate indices.  It is independent of the
    player's own current strategy, and serves both games: the ``h`` loop of
    :func:`best_response_max` builds its set-cover instances from it, and
    the SumNCG routines price every candidate strategy from its rows (the
    SumNCG strategy space is exactly its node set).  The engine builds one
    per memo miss through :func:`max_cover_context` and injects it.
    """

    order: list[Node]
    dist: np.ndarray
    forced: tuple[int, ...]
    #: The row of each node of ``order``.
    index: dict[Node, int]

    def rows(self, player: Node, targets) -> list[int]:
        """Row indices of ``targets``; refuses what ``modified_view_graph`` refuses."""
        rows = []
        for target in targets:
            if target == player:
                raise ValueError("a player cannot buy an edge to herself")
            if target not in self.index:
                raise ValueError(
                    f"target {target!r} is outside the player's view and cannot be bought"
                )
            rows.append(self.index[target])
        return rows


def max_cover_context(
    view: View, backend: str | KernelBackend | None = None
) -> MaxCoverContext:
    """Build the best-response context of ``view`` (pure function of content).

    Distances inside the view with the player removed: these are the
    distances available to reach each vertex after the first hop.  An
    :class:`~repro.core.views.ArrayView` (the engine's) already holds the
    CSR of ``H − u`` and its buyers' rows, so this is one all-pairs ``bfs``
    kernel call on it; any other view is copied without the player and
    exported first — the reference path.  ``backend`` selects the BFS
    kernel backend (bit-identical across backends, so the context content
    never depends on it).
    """
    if not isinstance(view, ArrayView):
        reduced = view.subgraph.without_node(view.player)
        dist, order = distance_matrix(reduced, backend=backend)
        index = {node: i for i, node in enumerate(order)}
        forced = tuple(sorted(index[buyer] for buyer in view.buyers if buyer in index))
    else:
        nodes, _, indptr, indices, rows = view.arrays
        order = [view.labels[i] for i in nodes.tolist()]
        dist = batched_bfs_distances(indptr, indices, None, backend=backend)
        index = dict(zip(order, range(len(order))))
        forced = tuple(rows.tolist())
    return MaxCoverContext(order=order, dist=dist, forced=forced, index=index)


def _max_view_cost(
    context: MaxCoverContext, player: Node, strategy: frozenset[Node], game: GameSpec
) -> float:
    """:func:`~repro.core.deviations.view_cost` of ``strategy`` in MaxNCG.

    Her distances after playing ``strategy`` are ``1 + min`` over the
    context rows of ``strategy`` and her buyers (see :class:`_SumEvaluator`),
    fed into the same float expression.
    """
    rows = context.rows(player, strategy) + list(context.forced)
    eccentricity, unreached = 0, len(context.order)
    if rows and unreached:
        minima = context.dist[rows].min(axis=0)
        farthest = int(minima.max())
        if farthest != UNREACHABLE:
            eccentricity, unreached = farthest + 1, 0
        else:
            reached = minima[minima != UNREACHABLE]
            if reached.size:
                eccentricity = int(reached.max()) + 1
            unreached -= reached.size
    return game.alpha * len(strategy) + game.cost_model.usage_max(
        float(eccentricity), unreached
    )


def _tolerant_partial_max(
    game: GameSpec,
    dist: np.ndarray,
    order: list[Node],
    forced: tuple[int, ...],
    solver: str,
    warm_start: bool,
    best_cost: float,
    best_strategy: frozenset[Node],
    exact: bool,
    backend: str | KernelBackend | None = None,
) -> tuple[float, frozenset[Node], bool]:
    """Partial-cover regime of the tolerant-model MaxNCG best response.

    Under a finite unreachable penalty ``β`` the player may leave whole
    connected components of the reduced view ``H \\ {u}`` unreached: her
    usage becomes ``max(h, β)`` where ``h`` bounds the eccentricity over
    the *reached* part.  Because the penalty enters a ``max`` (not a sum),
    abandoning one component costs the same as abandoning all of them, so
    the optimal partial strategy reaches exactly the components that are
    reached regardless of her choices — the ones holding a buyer, whose
    edge towards ``u`` exists whatever she plays — and covers those within
    ``h - 1`` of a bought target or a buyer.  Selecting a vertex in a
    buyer-free component is always dominated: it re-attaches the whole
    component (which must then be covered too) without reducing the ``β``
    term, since *some* component stays abandoned in this regime (reaching
    everything is the ordinary full-cover loop).

    Updates and returns the ``(best_cost, best_strategy, exact)`` incumbent;
    strictly-better-only updates keep strict-model tie-breaking untouched.
    """
    if dist.shape[0] == 0:
        return best_cost, best_strategy, exact
    beta = game.cost_model.unreachable_distance
    # Component label per reduced-view node: the smallest index it reaches
    # (rows always contain the finite self-distance, so argmax is well
    # defined and canonical).
    labels = (dist != UNREACHABLE).argmax(axis=1)
    forced_labels = {int(labels[i]) for i in forced}
    if not (set(int(label) for label in np.unique(labels)) - forced_labels):
        return best_cost, best_strategy, exact  # nothing is abandonable
    if not forced:
        # No buyers: the empty strategy reaches nobody, her in-view
        # eccentricity over the reached part ({u} alone) is 0 and the
        # abandoned rest costs one β — the cheapest possible partial reply.
        if beta < best_cost - COST_EPS:
            return beta, frozenset(), exact
        return best_cost, best_strategy, exact
    keep = np.flatnonzero(np.isin(labels, sorted(forced_labels)))
    sub_dist = dist[np.ix_(keep, keep)]
    sub_labels = [order[i] for i in keep]
    position = {int(original): pos for pos, original in enumerate(keep)}
    sub_forced = tuple(sorted(position[i] for i in forced))
    previous_selected: tuple[int, ...] | None = None
    for h in range(1, len(sub_labels) + 1):
        usage = max(float(h), beta)
        if usage >= best_cost - COST_EPS:
            break  # usage alone already loses; it only grows with h
        coverage = sub_dist <= (h - 1)
        instance = SetCoverInstance(
            coverage=coverage,
            forced=sub_forced,
            candidate_labels=sub_labels,
            element_labels=sub_labels,
        )
        if warm_start:
            size_cap = (
                int(math.ceil((best_cost - COST_EPS - usage) / game.alpha))
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
        cost = game.alpha * result.objective + usage
        if cost < best_cost - COST_EPS:
            best_cost = cost
            best_strategy = frozenset(result.selected_labels(instance))
            if not result.optimal:
                exact = False
    return best_cost, best_strategy, exact


def best_response_max(
    profile: StrategyProfile | None,
    player: Node,
    game: GameSpec,
    solver: str = ENGINE_DEFAULT_SOLVER,
    view: View | None = None,
    current_strategy: frozenset[Node] | None = None,
    cover_context: MaxCoverContext | None = None,
    warm_start: bool | None = None,
    backend: str | KernelBackend | None = None,
) -> BestResponse:
    """Exact (or greedy, per ``solver``) best response in MaxNCG.

    Works both for the local-knowledge game (``game.k`` finite) and for the
    classical game (``game.k = FULL_KNOWLEDGE``) — in the latter case the
    view is the whole network and the result is a classical best response.

    ``cover_context`` optionally injects a pre-built
    :class:`MaxCoverContext` (built by the engine on each memo miss); it
    must describe exactly ``view``'s content.  ``warm_start=True`` seeds each
    eccentricity guess's set-cover solve with the previous guess's
    solution — coverage ``dist <= h - 1`` grows monotonically in ``h``, so
    the old cover stays feasible and becomes the incumbent that prunes the
    next search.  Warm starting never changes the returned strategy or
    cost, only the solve time; ``warm_start=False`` forces the cold
    re-solve per ``h`` (the pre-scaling behaviour, kept for benchmarking).

    The default ``warm_start=None`` means *auto*: warm-start exactly when
    the solver can consume the hints (see
    :data:`repro.solvers.set_cover.WARM_START_SOLVERS`), silently cold
    otherwise — so the opt-in ``milp`` cross-check stays usable
    warning-free.  *Explicitly* requesting ``warm_start=True`` on a solver
    that cannot consume it warns loudly and takes the cold path
    (``greedy`` stays quiet — it has no exact search to prune, so warm
    starts are meaningless there).

    The incumbent is priced from the context rows (as
    :class:`_SumEvaluator` prices SumNCG strategies), and the whole
    eccentricity-guess loop runs in the kernel backend's ``max_reply`` —
    one native call per reply on the compiled backend — or, for the
    ``milp`` and ``greedy`` ablations, in
    :func:`repro.solvers.set_cover.max_reply`.  ``backend`` selects the
    kernel backend for the view BFS and that loop (see
    :mod:`repro.kernels`); all backends are bit-identical, so it never
    changes the returned strategy.
    """
    if game.usage is not UsageKind.MAX:
        raise ValueError("best_response_max requires a MaxNCG game spec")
    if warm_start is None:
        warm_start = solver in WARM_START_SOLVERS
    elif warm_start and solver not in WARM_START_SOLVERS:
        warm_start = False
        if solver != "greedy":
            warnings.warn(
                f"best-response solver {solver!r} cannot consume warm starts; "
                "each eccentricity guess re-solves its set cover cold (use "
                f"the engine default solver {ENGINE_DEFAULT_SOLVER!r} for the "
                "warm-start speedup)",
                RuntimeWarning,
                stacklevel=2,
            )
    view, current = _resolve_view_and_strategy(
        profile, player, game, view, current_strategy
    )
    if cover_context is None:
        cover_context = max_cover_context(view, backend=backend)
    dist = cover_context.dist
    order = cover_context.order
    forced = cover_context.forced
    current_cost = _max_view_cost(cover_context, player, current, game)
    exact = solver != "greedy"

    if solver == "branch_and_bound":
        reply = resolve_backend(backend).max_reply
    else:
        reply = functools.partial(max_reply, method=solver, backend=backend)
    best_cost, selection = reply(dist, forced, game.alpha, current_cost, warm_start)
    best_strategy = current if selection is None else frozenset(order[i] for i in selection)
    if game.cost_model.is_finite:
        # Disconnection-tolerant models admit a second regime: abandon the
        # buyer-free components of the reduced view and pay the β penalty
        # instead of covering them (see :func:`_tolerant_partial_max`).
        # Strictly-better-only updates leave strict behaviour bit-for-bit
        # intact — under the strict model this regime costs inf and the
        # call is skipped entirely.
        best_cost, best_strategy, exact = _tolerant_partial_max(
            game, dist, order, forced, solver, warm_start,
            best_cost, best_strategy, exact, backend=backend,
        )
    return BestResponse(
        player=player,
        strategy=best_strategy,
        view_cost=best_cost,
        current_view_cost=current_cost,
        exact=exact,
        view_size=view.size,
    )


#: Column-minimum rows the SumNCG evaluator prices per vectorised batch;
#: bounds the transient ``rows x |H - u|`` scratch of large size classes
#: and swap neighbourhoods.
_SUM_BATCH_ROWS: int = 4096


class _SumEvaluator:
    """Prices a player's SumNCG strategies from one distance matrix.

    After ``u`` switches to ``S`` every path out of ``u`` in the modified
    view ``H'`` starts with an edge to ``S`` or to a buyer ``b ∈ B`` (the
    edges bought towards ``u``, which she cannot drop: the context's
    ``forced`` rows), so for every other visible ``v``::

        d_{H'}(u, v) = 1 + min_{s ∈ S ∪ B} D[s, v]

    with ``D`` the distances of ``H − u`` (:attr:`MaxCoverContext.dist` —
    the SumNCG strategy space is exactly the node set of ``H − u``).  The
    column minimum of at most ``|S| + |B|`` rows gives a candidate's
    realised distance sum, its unreached count and its Proposition 2.2
    frontier veto: the integers :func:`~repro.core.deviations.view_cost` and
    :func:`~repro.core.deviations.deviation_is_forbidden_sum` read off a BFS
    of the copied view, fed into the same float expressions, so every cost
    and ``∆`` is bit-identical to
    :func:`~repro.core.deviations.worst_case_delta`.  Scalar costs are
    memoised per strategy for the lifetime of one reply.
    """

    def __init__(self, view: View, game: GameSpec, context: MaxCoverContext) -> None:
        self.view = view
        self.game = game
        self.context = context
        self.dist = context.dist
        self.index = context.index
        buyers = list(context.forced)
        self.base = (
            self.dist[buyers].min(axis=0)
            if buyers
            else np.full(len(context.order), UNREACHABLE, dtype=self.dist.dtype)
        )
        # The veto fires when 1 + minimum > reference, i.e. minimum >
        # reference - 1 (UNREACHABLE exceeds every finite limit).  Frontier
        # vertices are visible and never the player, so all sit in H - u.
        if not isinstance(view, ArrayView):
            self.frontier_columns = np.array(
                [self.index[vertex] for vertex in view.frontier], dtype=np.intp
            )
            self.frontier_limits = np.array(
                [view.distances.get(vertex, view.k) - 1 for vertex in view.frontier],
                dtype=np.float64,
            )
        else:
            # An array view's rows are its node positions, and its frontier
            # is the nodes at distance k (none under full knowledge).
            self.frontier_columns = np.flatnonzero(view.arrays[1] == view.k)
            self.frontier_limits = np.full(self.frontier_columns.size, view.k - 1.0)
        self._costs: dict[frozenset[Node], tuple[float, bool]] = {}

    def rows(self, targets) -> list[int]:
        """Row indices of ``targets`` (see :meth:`MaxCoverContext.rows`)."""
        return self.context.rows(self.view.player, targets)

    def minimum(self, rows: list[int]) -> np.ndarray:
        """Column minimum of ``rows ∪ B``: ``d_{H'}(u, ·) - 1`` over ``H − u``."""
        if not rows:
            return self.base
        return np.minimum(self.dist[rows].min(axis=0), self.base)

    def leave_one_out(self, rows: list[int]) -> np.ndarray:
        """Row ``i``: the column minimum of ``(rows without rows[i]) ∪ B``."""
        stacked = self.dist[rows]
        pad = np.full((1, stacked.shape[1]), UNREACHABLE, dtype=stacked.dtype)
        before = np.minimum.accumulate(np.vstack([pad, stacked]), axis=0)[:-1]
        after = np.minimum.accumulate(np.vstack([stacked, pad])[::-1], axis=0)[::-1][1:]
        return np.minimum(np.minimum(before, after), self.base)

    def price(self, minima: np.ndarray, size: int) -> tuple[np.ndarray, np.ndarray]:
        """View costs and frontier vetoes of strategies given their column minima.

        ``size`` is the strategies' common size.  The cost
        is ``α·|S| + usage_sum(finite sum, unreached)`` exactly as
        :func:`~repro.core.deviations.view_cost` computes it
        (:meth:`~repro.core.cost_models.CostModel.fold_sum` is the
        vectorised :meth:`~repro.core.cost_models.CostModel.usage_sum`).
        """
        reached = minima != UNREACHABLE
        counts = np.count_nonzero(reached, axis=1)
        # Each reached vertex sits one hop further than its row minimum;
        # u herself adds 0 to the sum and is never unreached.
        sums = np.add.reduce(np.where(reached, minima, 0), axis=1, dtype=np.int64) + counts
        unreached = minima.shape[1] - counts
        costs = self.game.alpha * size + self.game.cost_model.fold_sum(sums, unreached)
        if not self.frontier_columns.size:
            return costs, np.zeros(len(minima), dtype=bool)
        frontier = minima[:, self.frontier_columns]
        return costs, np.logical_or.reduce(frontier > self.frontier_limits, axis=1)

    def cost(self, strategy: frozenset[Node]) -> tuple[float, bool]:
        """``(view_cost, forbidden)`` of one strategy, memoised per reply."""
        known = self._costs.get(strategy)
        if known is None:
            minima = self.minimum(self.rows(strategy))[None, :]
            costs, forbidden = self.price(minima, len(strategy))
            known = (float(costs[0]), bool(forbidden[0]))
            self._costs[strategy] = known
        return known

    def remember(self, strategy: frozenset[Node], cost: float) -> None:
        """Record the cost of an allowed strategy priced in a batch."""
        self._costs[strategy] = (cost, False)

    def delta(self, current: frozenset[Node], new: frozenset[Node]) -> float:
        """:func:`~repro.core.deviations.worst_case_delta` of ``current → new``."""
        new_cost, forbidden = self.cost(new)
        if forbidden:
            return math.inf
        old_cost = self.cost(current)[0]
        if math.isinf(new_cost) and math.isinf(old_cost):
            return 0.0
        return new_cost - old_cost

    @staticmethod
    def deltas(old_cost: float, costs: np.ndarray, forbidden: np.ndarray) -> np.ndarray:
        """:meth:`delta` of one old cost against a batch of priced strategies."""
        if math.isinf(old_cost):
            # inf - inf -> 0.0; a finite new cost gives finite - inf = -inf.
            deltas = np.where(np.isinf(costs), 0.0, -math.inf)
        else:
            deltas = costs - old_cost
        deltas[forbidden] = math.inf
        return deltas


def _improving(base: float, deltas: np.ndarray, bar: float) -> np.ndarray:
    """Positions (in order) of finite ``∆`` with ``base + ∆ < bar``.

    ``base`` is the cost of the strategy the ``∆`` are taken from, or (in a
    climb) a finite sum of finite steps away from it.  An infinite ``base``
    leaves nothing below ``bar = base - COST_EPS``; a finite one means no
    ``∆`` is ``-inf``, and ``base + inf`` is never below ``bar``.
    """
    if math.isinf(base):
        return np.empty(0, dtype=np.intp)
    return np.flatnonzero(base + deltas < bar)


def best_response_sum_exhaustive(
    profile: StrategyProfile | None,
    player: Node,
    game: GameSpec,
    max_candidates: int = 16,
    view: View | None = None,
    current_strategy: frozenset[Node] | None = None,
    warm_start: frozenset[Node] | None = None,
    prune: bool = True,
    cover_context: MaxCoverContext | None = None,
) -> BestResponse:
    """Exact best response in SumNCG by exhaustive enumeration.

    Enumerates every subset of the player's strategy space, discarding the
    Proposition 2.2 forbidden moves, and keeps the cheapest.  The strategy
    space must contain at most ``max_candidates`` nodes (the enumeration is
    exponential); larger instances should use
    :func:`best_response_sum_local_search`.  Asking for a space beyond
    :data:`SUM_EXHAUSTIVE_LIMIT` raises a :class:`RuntimeWarning` before the
    ``2^m`` enumeration starts — the engine dispatch never does this, so a
    warning always marks an explicit oversized request.  Each subset-size
    class is priced in vectorised batches of column minima (see
    :class:`_SumEvaluator`); ``cover_context`` optionally injects the
    view's :class:`MaxCoverContext`, which is built otherwise.

    With ``prune=True`` (the default) the classes are priced in order of
    their usage lower bound — every visible node at distance 1 if
    adjacent-after-move, else at ``min(2, β)`` — and a class is skipped
    when that bound cannot beat the cheapest reply known so far: the
    incumbent, ``warm_start`` (an optional known strategy, e.g. a warm
    replay hint) and every class already priced.  Like the max game's warm
    starts, seeding and pruning never change the returned strategy or cost
    (only candidates strictly worse than a known feasible reply are
    skipped; the priced classes are scanned in canonical enumeration order,
    so ties resolve as in the full enumeration); ``prune=False`` forces the
    full enumeration, kept for benchmarking
    (``benchmarks/test_bench_sum.py``).
    """
    if game.usage is not UsageKind.SUM:
        raise ValueError("best_response_sum_exhaustive requires a SumNCG game spec")
    view, current = _resolve_view_and_strategy(
        profile, player, game, view, current_strategy
    )
    candidates = sorted(view.strategy_space, key=repr)
    if len(candidates) > max_candidates:
        raise ValueError(
            f"strategy space has {len(candidates)} nodes > max_candidates={max_candidates}; "
            "use best_response_sum_local_search instead"
        )
    if len(candidates) > SUM_EXHAUSTIVE_LIMIT:
        warnings.warn(
            f"exhaustive SumNCG best response over {len(candidates)} candidates "
            f"enumerates 2^{len(candidates)} strategies (dispatch limit is "
            f"{SUM_EXHAUSTIVE_LIMIT}); consider best_response_sum_local_search",
            RuntimeWarning,
            stacklevel=2,
        )
    if cover_context is None:
        cover_context = max_cover_context(view)
    evaluator = _SumEvaluator(view, game, cover_context)
    current_cost = evaluator.cost(current)[0]
    num_others = len(candidates)
    num_buyers = len(cover_context.forced)
    # Any node not adjacent after the move sits at distance >= 2 if reached,
    # or costs the unreachable penalty beta >= 1 — so min(2, beta) lower
    # bounds its contribution (= 2 under the strict model).
    far_cost = min(2.0, game.cost_model.unreachable_distance)

    def class_bound(size: int) -> float:
        near = min(size + num_buyers, num_others)
        return game.alpha * size + near + (num_others - near) * far_cost

    # Cost of the cheapest *known* reply: the incumbent strategy, tightened
    # by the warm-start seed and by every class priced.  Always >= the
    # optimum, so classes pruned against it are strictly worse than the
    # returned reply.
    prune_cost = current_cost
    if warm_start is not None:
        warm = frozenset(warm_start)
        if warm != current and warm.issubset(view.strategy_space):
            delta = evaluator.delta(current, warm)
            if not math.isinf(delta):
                prune_cost = min(prune_cost, current_cost + delta)
    # Pruning prices the most promising classes first, so the incumbent is
    # (near) optimal before the bound is checked against the rest.
    sizes = range(num_others + 1)
    if prune:
        sizes = sorted(sizes, key=lambda size: (class_bound(size), size))
    rows = np.array(evaluator.rows(candidates), dtype=np.intp)
    priced: dict[int, list[tuple[np.ndarray, np.ndarray]]] = {}
    for size in sizes:
        if prune and class_bound(size) > prune_cost + COST_EPS:
            break
        priced[size] = _price_class(evaluator, rows, size, current_cost)
        for _, deltas in priced[size]:
            allowed = deltas[np.isfinite(deltas)]
            if allowed.size:
                prune_cost = min(prune_cost, current_cost + float(allowed.min()))
    # The canonical scan: every priced subset in size-then-combinations
    # order, keeping the first that is strictly better by COST_EPS.
    best_cost = current_cost
    best_strategy = current
    for size in sorted(priced):
        for members, deltas in priced[size]:
            position = 0
            while True:
                hits = _improving(current_cost, deltas[position:], best_cost - COST_EPS)
                if not hits.size:
                    break
                position += int(hits[0])
                strategy = frozenset(candidates[i] for i in members[position])
                if strategy != current:
                    best_cost = current_cost + float(deltas[position])
                    best_strategy = strategy
                position += 1
    return BestResponse(
        player=player,
        strategy=best_strategy,
        view_cost=best_cost,
        current_view_cost=current_cost,
        exact=True,
        view_size=view.size,
    )


def _price_class(
    evaluator: _SumEvaluator, rows: np.ndarray, size: int, current_cost: float
) -> list[tuple[np.ndarray, np.ndarray]]:
    """``(members, ∆)`` batches of every ``size``-subset of the candidates.

    ``members`` holds candidate positions, one subset per row, in
    ``itertools.combinations`` order; ``∆`` is each subset's
    :func:`~repro.core.deviations.worst_case_delta` from the current
    strategy.
    """
    priced = []
    combos = itertools.combinations(range(len(rows)), size)
    while batch := list(itertools.islice(combos, _SUM_BATCH_ROWS)):
        members = np.array(batch, dtype=np.intp).reshape(len(batch), size)
        if size:
            minima = np.minimum(evaluator.dist[rows[members]].min(axis=1), evaluator.base)
        else:
            minima = evaluator.base[None, :]
        costs, forbidden = evaluator.price(minima, size)
        priced.append((members, evaluator.deltas(current_cost, costs, forbidden)))
    return priced


def _neighbourhood(
    evaluator: _SumEvaluator, strategy: frozenset[Node], candidates: list[Node]
):
    """The add / drop / swap neighbourhood of ``strategy``, in scan order.

    Yields ``(size, minima, member)`` batches: the batch's strategy size,
    the strategies' column minima, and ``member(i)`` building the ``i``-th
    strategy of the batch.  The order is the single climb's — every add
    (candidate order), every drop (``repr`` order), then every swap,
    removed-major — and each batch is built only when the climb asks for
    it, so a step that finds an improving add never prices its drops or
    swaps.  Swaps come in batches of at most :data:`_SUM_BATCH_ROWS` rows.
    """
    present = sorted(strategy, key=repr)
    absent = [c for c in candidates if c not in strategy]
    index = evaluator.index
    present_rows = [index[c] for c in present]
    absent_dist = evaluator.dist[[index[c] for c in absent]]
    size = len(present)
    if absent:
        yield (
            size + 1,
            np.minimum(evaluator.minimum(present_rows), absent_dist),
            lambda i: strategy | {absent[i]},
        )
    if not present:
        return
    without = evaluator.leave_one_out(present_rows)
    yield size - 1, without, lambda i: strategy - {present[i]}
    if not absent:
        return
    step = max(1, _SUM_BATCH_ROWS // len(absent))
    for first in range(0, size, step):
        swaps = np.minimum(without[first:first + step, None, :], absent_dist[None])
        yield (
            size,
            swaps.reshape(-1, absent_dist.shape[1]),
            lambda i, first=first: (
                strategy - {present[first + i // len(absent)]}
            ) | {absent[i % len(absent)]},
        )


def _sum_hill_climb(
    evaluator: _SumEvaluator,
    candidates: list[Node],
    start_strategy: frozenset[Node],
    start_cost: float,
    max_iterations: int,
) -> tuple[frozenset[Node], float]:
    """One first-improvement hill climb from ``start_strategy``.

    Applies the first improving single add / drop / swap move (among the
    Proposition 2.2 allowed ones) until no single move improves the in-view
    cost; returns the local optimum and its cost.  Each step prices its
    neighbourhood in vectorised batches, in the climb's scan order.
    """
    best_strategy = start_strategy
    best_cost = start_cost
    for _ in range(max_iterations):
        old_cost = evaluator.cost(best_strategy)[0]
        bar = best_cost - COST_EPS
        for size, minima, member in _neighbourhood(evaluator, best_strategy, candidates):
            costs, forbidden = evaluator.price(minima, size)
            deltas = evaluator.deltas(old_cost, costs, forbidden)
            hits = _improving(best_cost, deltas, bar)
            if hits.size:
                first = int(hits[0])
                best_strategy = member(first)
                best_cost = best_cost + float(deltas[first])
                evaluator.remember(best_strategy, float(costs[first]))
                break
        else:
            break
    return best_strategy, best_cost


def best_response_sum_local_search(
    profile: StrategyProfile | None,
    player: Node,
    game: GameSpec,
    max_iterations: int = 200,
    view: View | None = None,
    current_strategy: frozenset[Node] | None = None,
    seed_strategy: frozenset[Node] | None = None,
    restarts: int = 1,
    cover_context: MaxCoverContext | None = None,
) -> BestResponse:
    """Hill-climbing best-*reply* heuristic for SumNCG.

    Repeatedly applies the first improving single add / drop / swap move
    (among the Proposition 2.2 allowed ones) until no single move improves
    the in-view cost.  The result is a local optimum, not necessarily a
    best response, and is flagged ``exact=False``.  ``cover_context``
    optionally injects the view's :class:`MaxCoverContext`, which is built
    otherwise (see :class:`_SumEvaluator`).

    The climb starts from the *incumbent* strategy — which on the engine
    path is the player's previous best response, so a re-activation after a
    localized change resumes from an almost-converged point instead of
    restarting.  ``seed_strategy`` optionally restarts the climb from a
    different known-good strategy instead (a warm replay hint); an invalid
    or non-improving seed is ignored, never trusted.

    ``restarts > 1`` climbs from ``restarts - 1`` additional random starting
    strategies (random subsets of the strategy space) and keeps the best
    local optimum found — the multi-seed defence against the single climb's
    unbounded quality gap on large views.  The extra starts are drawn from a
    deterministic stream derived from (player, view size, current strategy),
    so the reply stays a pure function of the memo key ``(view content, own
    strategy)`` and never invalidates the engine's best-response memo; a
    strictly-better-only update rule keeps ``restarts=1`` tie-breaking
    bit-for-bit.
    """
    if game.usage is not UsageKind.SUM:
        raise ValueError("best_response_sum_local_search requires a SumNCG game spec")
    if restarts < 1:
        raise ValueError("restarts must be a positive integer")
    view, current = _resolve_view_and_strategy(
        profile, player, game, view, current_strategy
    )
    if cover_context is None:
        cover_context = max_cover_context(view)
    evaluator = _SumEvaluator(view, game, cover_context)
    candidates = sorted(view.strategy_space, key=repr)
    current_cost = evaluator.cost(current)[0]
    best_strategy = current
    best_cost = current_cost
    if seed_strategy is not None:
        seed = frozenset(seed_strategy)
        if seed != current and seed.issubset(view.strategy_space):
            delta = evaluator.delta(current, seed)
            if not math.isinf(delta) and current_cost + delta < best_cost - COST_EPS:
                best_strategy = seed
                best_cost = current_cost + delta

    best_strategy, best_cost = _sum_hill_climb(
        evaluator, candidates, best_strategy, best_cost, max_iterations
    )
    if restarts > 1 and candidates:
        rng = random.Random(
            f"sum-restarts:{player!r}:{len(candidates)}:{sorted(map(repr, current))}"
        )
        for _ in range(restarts - 1):
            size = rng.randint(0, len(candidates))
            start = frozenset(rng.sample(candidates, size))
            if start == current:
                continue  # the incumbent climb already covered this start
            delta = evaluator.delta(current, start)
            if math.isinf(delta):
                continue  # forbidden move (Proposition 2.2): unusable start
            strategy, cost = _sum_hill_climb(
                evaluator, candidates, start, current_cost + delta, max_iterations
            )
            if cost < best_cost - COST_EPS:
                best_cost = cost
                best_strategy = strategy
    return BestResponse(
        player=player,
        strategy=best_strategy,
        view_cost=best_cost,
        current_view_cost=current_cost,
        exact=False,
        view_size=view.size,
    )


def best_response(
    profile: StrategyProfile | None,
    player: Node,
    game: GameSpec,
    solver: str = ENGINE_DEFAULT_SOLVER,
    sum_exhaustive_limit: int = SUM_EXHAUSTIVE_LIMIT,
    view: View | None = None,
    current_strategy: frozenset[Node] | None = None,
    cover_context: MaxCoverContext | None = None,
    backend: str | KernelBackend | None = None,
) -> BestResponse:
    """Dispatch to the appropriate best-response routine for the game kind.

    MaxNCG always uses the dominating-set reduction.  SumNCG is exact when
    the strategy space is small (``<= sum_exhaustive_limit`` candidates,
    default :data:`SUM_EXHAUSTIVE_LIMIT`): the pruned exhaustive
    enumeration — same answer as the full enumeration, a fraction of the
    work.  Larger spaces get the hill-climbing local search, climbing from
    the incumbent strategy (``exact=False``).  This is the routine behind
    :meth:`repro.engine.DynamicsEngine.peek_response`, so both regimes ride
    the engine's per-(view token, strategy) memo.

    ``view`` and ``current_strategy`` may be injected to bypass the
    per-call view extraction (the incremental engine's cached path); the
    result is identical to the extract-from-profile path for equal view
    content.  ``cover_context`` injects the view's :class:`MaxCoverContext`
    for either game: MaxNCG builds its set-cover instances from it, and the
    SumNCG routines price every candidate strategy from its distance
    matrix.  Without it the context is built here.  ``backend`` selects the
    kernel backend of the context's BFS and of the MaxNCG cover search
    (bit-identical across backends, so it never changes the reply).
    """
    if game.usage is UsageKind.MAX:
        return best_response_max(
            profile, player, game, solver=solver, view=view,
            current_strategy=current_strategy, cover_context=cover_context,
            backend=backend,
        )
    view, current_strategy = _resolve_view_and_strategy(
        profile, player, game, view, current_strategy
    )
    if cover_context is None:
        cover_context = max_cover_context(view, backend=backend)
    if len(view.strategy_space) <= sum_exhaustive_limit:
        return best_response_sum_exhaustive(
            profile, player, game, max_candidates=sum_exhaustive_limit, view=view,
            current_strategy=current_strategy, cover_context=cover_context,
        )
    return best_response_sum_local_search(
        profile,
        player,
        game,
        view=view,
        current_strategy=current_strategy,
        cover_context=cover_context,
    )
