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
branch-and-bound) or greedily (ablation).

SumNCG
------
The paper does not run SumNCG experiments because the best response is
NP-hard even to approximate conveniently.  This module makes the sum game
engine-grade anyway: :func:`best_response` routes small strategy spaces
(``<=`` :data:`SUM_EXHAUSTIVE_LIMIT` candidates) through a hill-climbing
local search whose result *seeds* the exact exhaustive enumeration — the
seed's cost is a feasible incumbent, so whole subset-size classes whose
usage lower bound cannot beat it are skipped without a single BFS — and
larger spaces through the local search alone (flagged ``exact=False``).
Seeding and pruning never change the returned strategy, only the solve
time, which is what lets :class:`repro.engine.DynamicsEngine` memoise sum
best responses per (view token, strategy) exactly like the max game.

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

import itertools
import math
import random
import warnings
from dataclasses import dataclass

import numpy as np

from repro.core.deviations import COST_EPS, view_cost, worst_case_delta
from repro.core.games import GameSpec, UsageKind
from repro.core.strategies import StrategyProfile
from repro.core.views import View, extract_view
from repro.graphs.graph import Node
from repro.graphs.traversal import distance_matrix
from repro.kernels import KernelBackend
from repro.kernels.common import UNREACHABLE
from repro.solvers.set_cover import (
    WARM_START_SOLVERS,
    SetCoverInstance,
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
#: exactly (local-search seed + pruned exhaustive cross-check); beyond it
#: the hill-climbing local search alone answers, flagged ``exact=False``.
#: The enumeration is ``O(2^m)`` BFS calls worst case, so
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

    @property
    def is_improving(self) -> bool:
        return self.improvement > COST_EPS


def _current_best_response(view: View, current: frozenset[Node], game: GameSpec, exact: bool) -> BestResponse:
    cost = view_cost(view, current, game)
    return BestResponse(
        player=view.player,
        strategy=current,
        view_cost=cost,
        current_view_cost=cost,
        exact=exact,
        view_size=view.size,
    )


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
    """Distance structure behind a player's MaxNCG set-cover instances.

    Everything the ``h`` loop of :func:`best_response_max` derives from the
    view *content* alone — the reduced-view distance matrix, its node order
    and the forced (other-endpoint buyer) candidate indices.  It is
    independent of the player's own current strategy.  The engine builds
    one per memo miss through :func:`max_cover_context` and injects it.
    """

    order: list[Node]
    dist: np.ndarray
    forced: tuple[int, ...]


def max_cover_context(
    view: View, backend: str | KernelBackend | None = None
) -> MaxCoverContext:
    """Build the set-cover context of ``view`` (pure function of content).

    Distances inside the view with the player removed: these are the
    distances available to reach each vertex after the first hop.
    ``backend`` selects the BFS kernel backend (bit-identical across
    backends, so the context content never depends on it).
    """
    reduced = view.subgraph.without_node(view.player)
    dist, order = distance_matrix(reduced, backend=backend)
    index = {node: i for i, node in enumerate(order)}
    forced = tuple(sorted(index[buyer] for buyer in view.buyers if buyer in index))
    return MaxCoverContext(order=order, dist=dist, forced=forced)


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

    ``backend`` selects the kernel backend for the view BFS and the
    branch-and-bound cover search (see :mod:`repro.kernels`); all backends
    are bit-identical, so it never changes the returned strategy.
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
    current_cost = view_cost(view, current, game)
    exact = solver != "greedy"

    # Trivial view: the player sees nobody else, the empty strategy is optimal.
    others = sorted(view.strategy_space, key=repr)
    if not others:
        empty: frozenset[Node] = frozenset()
        return BestResponse(player, empty, game.alpha * 0, current_cost, exact, view.size)

    if cover_context is None:
        cover_context = max_cover_context(view, backend=backend)
    dist = cover_context.dist
    order = cover_context.order
    forced = cover_context.forced
    num_nodes = len(order)

    best_cost = current_cost
    best_strategy = current
    previous_selected: tuple[int, ...] | None = None
    # A response with eccentricity h costs at least h, so once h reaches the
    # incumbent cost no better solution can exist.
    max_h = num_nodes
    for h in range(1, max_h + 1):
        if h >= best_cost - COST_EPS:
            break
        coverage = dist <= (h - 1)
        instance = SetCoverInstance(
            coverage=coverage,
            forced=forced,
            candidate_labels=order,
            element_labels=order,
        )
        if warm_start:
            # Only covers with alpha * size + h < best_cost can beat the
            # incumbent — anything larger is discarded by the cost check
            # below — so cap the exact search at the largest useful size.
            # An "infeasible" result then just means "nothing useful at this
            # h"; a genuinely feasible cover for the next h's seed is still
            # tracked through previous_selected.  While best_cost is still
            # infinite (disconnected incumbent) every size is useful.
            size_cap = (
                int(math.ceil((best_cost - COST_EPS - h) / game.alpha))
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
        cost = game.alpha * result.objective + h
        if cost < best_cost - COST_EPS:
            best_cost = cost
            best_strategy = frozenset(result.selected_labels(instance))
            if not result.optimal:
                exact = False
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


def best_response_sum_exhaustive(
    profile: StrategyProfile | None,
    player: Node,
    game: GameSpec,
    max_candidates: int = 16,
    view: View | None = None,
    current_strategy: frozenset[Node] | None = None,
    warm_start: frozenset[Node] | None = None,
    prune: bool = True,
) -> BestResponse:
    """Exact best response in SumNCG by exhaustive enumeration.

    Enumerates every subset of the player's strategy space, discarding the
    Proposition 2.2 forbidden moves, and keeps the cheapest.  The strategy
    space must contain at most ``max_candidates`` nodes (the enumeration is
    exponential); larger instances should use
    :func:`best_response_sum_local_search`.  Asking for a space beyond
    :data:`SUM_EXHAUSTIVE_LIMIT` raises a :class:`RuntimeWarning` before the
    ``2^m`` enumeration starts — the engine dispatch never does this, so a
    warning always marks an explicit oversized request.

    ``warm_start`` optionally hands over a known strategy (typically the
    local-search reply the :func:`best_response` dispatch just computed).
    Its cost becomes a pruning incumbent: a whole subset-size class is
    skipped when even its usage lower bound — every visible node at
    distance 1 if adjacent-after-move, else at ``min(2, β)`` — cannot beat
    a known reply.  Like the max game's warm starts, seeding and pruning
    never change the returned strategy or cost (only candidates strictly
    worse than a known feasible reply are skipped; ties always survive to
    be resolved in canonical enumeration order); ``prune=False`` forces the
    pre-scaling full enumeration, kept for benchmarking
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
    current_cost = view_cost(view, current, game)
    best_cost = current_cost
    best_strategy = current
    num_others = len(candidates)
    num_buyers = len(view.buyers)
    # Any node not adjacent after the move sits at distance >= 2 if reached,
    # or costs the unreachable penalty beta >= 1 — so min(2, beta) lower
    # bounds its contribution (= 2 under the strict model).
    far_cost = min(2.0, game.cost_model.unreachable_distance)
    # Cost of the cheapest *known* reply: the incumbent strategy, tightened
    # by the warm-start seed.  Always >= the optimum, so classes pruned
    # against it are strictly worse than the returned reply.
    prune_cost = current_cost
    if warm_start is not None:
        warm = frozenset(warm_start)
        if warm != current and warm.issubset(view.strategy_space):
            delta = worst_case_delta(view, current, warm, game)
            if not math.isinf(delta):
                prune_cost = min(prune_cost, current_cost + delta)
    for size in range(len(candidates) + 1):
        if prune:
            if game.alpha * size + num_others > prune_cost + COST_EPS:
                # Even an everything-adjacent reply of this size is dearer
                # than a known one; building cost only grows from here.
                break
            near_max = min(size + num_buyers, num_others)
            class_bound = (
                game.alpha * size + near_max + (num_others - near_max) * far_cost
            )
            if class_bound > prune_cost + COST_EPS:
                continue
        for combo in itertools.combinations(candidates, size):
            candidate_strategy = frozenset(combo)
            if candidate_strategy == current:
                continue
            delta = worst_case_delta(view, current, candidate_strategy, game)
            if math.isinf(delta):
                continue
            cost = current_cost + delta
            if cost < best_cost - COST_EPS:
                best_cost = cost
                best_strategy = candidate_strategy
                prune_cost = min(prune_cost, best_cost)
    return BestResponse(
        player=player,
        strategy=best_strategy,
        view_cost=best_cost,
        current_view_cost=current_cost,
        exact=True,
        view_size=view.size,
    )


def _sum_hill_climb(
    view: View,
    game: GameSpec,
    candidates: list[Node],
    start_strategy: frozenset[Node],
    start_cost: float,
    max_iterations: int,
) -> tuple[frozenset[Node], float]:
    """One first-improvement hill climb from ``start_strategy``.

    Applies the first improving single add / drop / swap move (among the
    Proposition 2.2 allowed ones) until no single move improves the in-view
    cost; returns the local optimum and its cost.
    """
    best_strategy = start_strategy
    best_cost = start_cost
    for _ in range(max_iterations):
        improved = False
        neighbourhood: list[frozenset[Node]] = []
        present = sorted(best_strategy, key=repr)
        absent = [c for c in candidates if c not in best_strategy]
        neighbourhood.extend(best_strategy | {c} for c in absent)
        neighbourhood.extend(best_strategy - {c} for c in present)
        neighbourhood.extend(
            (best_strategy - {removed}) | {added}
            for removed in present
            for added in absent
        )
        for candidate_strategy in neighbourhood:
            delta = worst_case_delta(view, best_strategy, candidate_strategy, game)
            if math.isinf(delta):
                continue
            cost = best_cost + delta
            if cost < best_cost - COST_EPS:
                best_cost = cost
                best_strategy = frozenset(candidate_strategy)
                improved = True
                break
        if not improved:
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
) -> BestResponse:
    """Hill-climbing best-*reply* heuristic for SumNCG.

    Repeatedly applies the first improving single add / drop / swap move
    (among the Proposition 2.2 allowed ones) until no single move improves
    the in-view cost.  The result is a local optimum, not necessarily a
    best response, and is flagged ``exact=False``.

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
    candidates = sorted(view.strategy_space, key=repr)
    current_cost = view_cost(view, current, game)
    best_strategy = current
    best_cost = current_cost
    if seed_strategy is not None:
        seed = frozenset(seed_strategy)
        if seed != current and seed.issubset(view.strategy_space):
            delta = worst_case_delta(view, current, seed, game)
            if not math.isinf(delta) and current_cost + delta < best_cost - COST_EPS:
                best_strategy = seed
                best_cost = current_cost + delta

    best_strategy, best_cost = _sum_hill_climb(
        view, game, candidates, best_strategy, best_cost, max_iterations
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
            delta = worst_case_delta(view, current, start, game)
            if math.isinf(delta):
                continue  # forbidden move (Proposition 2.2): unusable start
            strategy, cost = _sum_hill_climb(
                view, game, candidates, start, current_cost + delta, max_iterations
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
    sum_restarts: int = 1,
    backend: str | KernelBackend | None = None,
) -> BestResponse:
    """Dispatch to the appropriate best-response routine for the game kind.

    MaxNCG always uses the dominating-set reduction.  SumNCG is exact when
    the strategy space is small (``<= sum_exhaustive_limit`` candidates,
    default :data:`SUM_EXHAUSTIVE_LIMIT`): a warm-started local-search
    climb from the incumbent strategy runs first and its reply *seeds* the
    exhaustive enumeration as a pruning incumbent — same answer as the cold
    enumeration, a fraction of the BFS calls.  Larger spaces get the local
    search alone (``exact=False``).  This is the routine behind
    :meth:`repro.engine.DynamicsEngine.peek_response`, so both regimes ride
    the engine's per-(view token, strategy) memo.

    ``view`` and ``current_strategy`` may be injected to bypass the
    per-call view extraction (the incremental engine's cached path); the
    result is identical to the extract-from-profile path for equal view
    content.  ``cover_context`` is forwarded to :func:`best_response_max`
    (MaxNCG only), which then uses it instead of building its own.
    ``sum_restarts`` is forwarded to
    :func:`best_response_sum_local_search` on the heuristic (above-limit)
    SumNCG path only: extra deterministic multi-seed climbs that can only
    improve the reply; the exact path ignores it (enumeration already
    proves optimality).  ``backend`` selects the kernel backend on the
    MaxNCG path (bit-identical across backends; the SumNCG routines run on
    dict-based traversals and ignore it).
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
    if len(view.strategy_space) <= sum_exhaustive_limit:
        seed = best_response_sum_local_search(
            profile, player, game, view=view, current_strategy=current_strategy
        )
        return best_response_sum_exhaustive(
            profile, player, game, max_candidates=sum_exhaustive_limit, view=view,
            current_strategy=current_strategy, warm_start=seed.strategy,
        )
    return best_response_sum_local_search(
        profile,
        player,
        game,
        view=view,
        current_strategy=current_strategy,
        restarts=sum_restarts,
    )
