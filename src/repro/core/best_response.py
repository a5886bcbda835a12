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
frontier veto are a column minimum away (see
:mod:`repro.solvers.sum_reply`).  The costs are the same float expressions
over the same integers as :func:`~repro.core.deviations.worst_case_delta`,
which stays as the reference.  A pruned enumeration, and each climb, is
one call of the kernel backend's ``sum_reply``.

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
from repro.solvers import sum_reply as sum_search
from repro.solvers.set_cover import (
    WARM_START_SOLVERS,
    max_reply,
    solve_set_cover,  # noqa: F401 -- sweepbench's tracer wraps this binding
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
    context rows of ``strategy`` and her buyers (see
    :class:`~repro.solvers.sum_reply.SumEvaluator`),
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
    ``h - 1`` of a bought target or a buyer: one
    :func:`~repro.solvers.set_cover.max_reply` over those components with
    ``usage_floor=β``.  Selecting a vertex in a buyer-free component is
    always dominated: it re-attaches the whole component (which must then
    be covered too) without reducing the ``β`` term, since *some*
    component stays abandoned in this regime (reaching everything is the
    ordinary full-cover loop).

    Updates and returns the ``(best_cost, best_strategy, exact)``
    incumbent; strictly-better-only updates keep strict-model tie-breaking
    untouched.  ``exact`` passes through: the regime's covers come from the
    same solver as the full-cover loop's.
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
    position = {int(original): pos for pos, original in enumerate(keep)}
    cost, selection = max_reply(
        dist[np.ix_(keep, keep)],
        tuple(sorted(position[i] for i in forced)),
        game.alpha,
        best_cost,
        warm_start,
        method=solver,
        backend=backend,
        usage_floor=beta,
    )
    if selection is None:
        return best_cost, best_strategy, exact
    return cost, frozenset(order[keep[i]] for i in selection), exact


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
    :class:`~repro.solvers.sum_reply.SumEvaluator` prices SumNCG
    strategies), and the whole
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


def _sum_problem(
    view: View, game: GameSpec, context: MaxCoverContext
) -> tuple[tuple, np.ndarray]:
    """The pricing arguments of a SumNCG reply and its candidates, as rows.

    The pricing arguments are ``(dist, forced, frontier_columns,
    frontier_limits, alpha, beta)`` — those of
    :class:`~repro.solvers.sum_reply.SumEvaluator` and the leading ones of
    the ``sum_reply`` kernel — and the candidates are the strategy space's
    rows in ``repr`` order, the scan order of every search.  An
    :class:`~repro.core.views.ArrayView`'s context rows are already in that
    order (its labels are), and its frontier is the nodes at distance ``k``
    (none under full knowledge); any other view's are looked up.  A
    frontier vertex's limit is its distance from the player minus one.
    """
    if not isinstance(view, ArrayView):
        index = context.index
        candidates = np.array(
            [index[node] for node in sorted(view.strategy_space, key=repr)], dtype=np.intp
        )
        columns = np.array([index[vertex] for vertex in view.frontier], dtype=np.intp)
        limits = np.array(
            [view.distances.get(vertex, view.k) - 1 for vertex in view.frontier],
            dtype=np.float64,
        )
    else:
        candidates = np.arange(len(context.order))
        columns = np.flatnonzero(view.arrays[1] == view.k)
        limits = np.full(columns.size, view.k - 1.0)
    pricing = (
        context.dist, context.forced, columns, limits,
        game.alpha, game.cost_model.unreachable_distance,
    )
    return pricing, candidates


def _in_space(context: MaxCoverContext, strategy: frozenset[Node]) -> bool:
    """Whether every target of ``strategy`` is in the SumNCG strategy space."""
    return all(node in context.index for node in strategy)


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
    backend: str | KernelBackend | None = None,
) -> BestResponse:
    """Exact best response in SumNCG by exhaustive enumeration.

    Enumerates every subset of the player's strategy space, discarding the
    Proposition 2.2 forbidden moves, and keeps the cheapest.  The strategy
    space must contain at most ``max_candidates`` nodes (the enumeration is
    exponential); larger instances should use
    :func:`best_response_sum_local_search`.  Asking for a space beyond
    :data:`SUM_EXHAUSTIVE_LIMIT` raises a :class:`RuntimeWarning` before the
    ``2^m`` enumeration starts — the engine dispatch never does this, so a
    warning always marks an explicit oversized request.  Every candidate is
    priced from the view's :class:`MaxCoverContext` distance matrix (see
    :mod:`repro.solvers.sum_reply`); ``cover_context`` optionally injects
    it, and it is built otherwise.

    With ``prune=True`` (the default) the whole reply is one call of the
    kernel backend's ``sum_reply`` (``backend`` selects it; all backends
    are bit-identical): the subset-size classes are priced in order of
    their usage lower bound — every visible node at distance 1 if
    adjacent-after-move, else at ``min(2, β)`` — and a class is skipped
    when that bound cannot beat the cheapest reply known so far: the
    incumbent, ``warm_start`` (an optional known strategy, e.g. a warm
    replay hint) and every class already priced.  Like the max game's warm
    starts, seeding and pruning never change the returned strategy or cost
    (only candidates strictly worse than a known feasible reply are
    skipped; the priced classes are scanned in canonical enumeration order,
    so ties resolve as in the full enumeration); ``prune=False`` forces the
    full enumeration in Python, kept for benchmarking
    (``benchmarks/test_bench_sum.py``).
    """
    if game.usage is not UsageKind.SUM:
        raise ValueError("best_response_sum_exhaustive requires a SumNCG game spec")
    view, current = _resolve_view_and_strategy(
        profile, player, game, view, current_strategy
    )
    if cover_context is None:
        cover_context = max_cover_context(view, backend=backend)
    num_candidates = len(cover_context.order)
    if num_candidates > max_candidates:
        raise ValueError(
            f"strategy space has {num_candidates} nodes > max_candidates={max_candidates}; "
            "use best_response_sum_local_search instead"
        )
    if num_candidates > SUM_EXHAUSTIVE_LIMIT:
        warnings.warn(
            f"exhaustive SumNCG best response over {num_candidates} candidates "
            f"enumerates 2^{num_candidates} strategies (dispatch limit is "
            f"{SUM_EXHAUSTIVE_LIMIT}); consider best_response_sum_local_search",
            RuntimeWarning,
            stacklevel=2,
        )
    pricing, candidates = _sum_problem(view, game, cover_context)
    start = None
    if warm_start is not None:
        warm = frozenset(warm_start)
        if warm != current and _in_space(cover_context, warm):
            start = cover_context.rows(player, warm)
    reply = (
        resolve_backend(backend).sum_reply
        if prune
        else functools.partial(sum_search.sum_reply, prune=False)
    )
    current_cost, best_cost, selection = reply(
        *pricing, candidates, cover_context.rows(player, current), start, 0.0, None
    )
    return BestResponse(
        player=player,
        strategy=_reply_strategy(cover_context, current, selection),
        view_cost=best_cost,
        current_view_cost=current_cost,
        exact=True,
        view_size=view.size,
    )


def _reply_strategy(
    context: MaxCoverContext, origin: frozenset[Node], selection: tuple[int, ...] | None
) -> frozenset[Node]:
    """The labels of a ``sum_reply`` selection (``origin`` when ``None``)."""
    if selection is None:
        return origin
    return frozenset(context.order[i] for i in selection)


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
    backend: str | KernelBackend | None = None,
) -> BestResponse:
    """Hill-climbing best-*reply* heuristic for SumNCG.

    Repeatedly applies the first improving single add / drop / swap move
    (among the Proposition 2.2 allowed ones) until no single move improves
    the in-view cost.  The result is a local optimum, not necessarily a
    best response, and is flagged ``exact=False``.  Each climb is one call
    of the kernel backend's ``sum_reply`` (``backend`` selects it; all
    backends are bit-identical), pricing candidates from the view's
    :class:`MaxCoverContext`, which ``cover_context`` optionally injects
    and which is built otherwise.

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
        cover_context = max_cover_context(view, backend=backend)
    pricing, candidates = _sum_problem(view, game, cover_context)
    current_rows = cover_context.rows(player, current)
    reply = resolve_backend(backend).sum_reply
    # Seeds and restart starts are priced here, in Python, around the climbs.
    current_key = frozenset(current_rows)
    evaluator = (
        sum_search.SumEvaluator(*pricing) if seed_strategy is not None or restarts > 1 else None
    )

    def delta(strategy: frozenset[Node]) -> float:
        return evaluator.delta(current_key, frozenset(cover_context.rows(player, strategy)))

    def climb(
        start: frozenset[Node] | None, start_cost: float = 0.0
    ) -> tuple[float, float, frozenset[Node]]:
        """One kernel climb from ``start``, or from the incumbent at its cost."""
        rows = None if start is None else cover_context.rows(player, start)
        current_cost, cost, selection = reply(
            *pricing, candidates, current_rows, rows, start_cost, max_iterations
        )
        origin = current if start is None else start
        return current_cost, cost, _reply_strategy(cover_context, origin, selection)

    start, start_cost = None, 0.0
    if seed_strategy is not None:
        seed = frozenset(seed_strategy)
        if seed != current and _in_space(cover_context, seed):
            current_cost = evaluator.cost(current_key)[0]
            step = delta(seed)
            if not math.isinf(step) and current_cost + step < current_cost - COST_EPS:
                start, start_cost = seed, current_cost + step
    current_cost, best_cost, best_strategy = climb(start, start_cost)
    if restarts > 1 and len(candidates):
        labels = [cover_context.order[i] for i in candidates.tolist()]
        rng = random.Random(
            f"sum-restarts:{player!r}:{len(labels)}:{sorted(map(repr, current))}"
        )
        for _ in range(restarts - 1):
            size = rng.randint(0, len(labels))
            start = frozenset(rng.sample(labels, size))
            if start == current:
                continue  # the incumbent climb already covered this start
            step = delta(start)
            if math.isinf(step):
                continue  # forbidden move (Proposition 2.2): unusable start
            _, cost, strategy = climb(start, current_cost + step)
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
    if len(cover_context.order) <= sum_exhaustive_limit:
        return best_response_sum_exhaustive(
            profile, player, game, max_candidates=sum_exhaustive_limit, view=view,
            current_strategy=current_strategy, cover_context=cover_context,
            backend=backend,
        )
    return best_response_sum_local_search(
        profile,
        player,
        game,
        view=view,
        current_strategy=current_strategy,
        cover_context=cover_context,
        backend=backend,
    )
