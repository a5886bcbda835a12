"""SumNCG replies over the distance matrix of a player's view without her.

After ``u`` switches to ``S`` every path out of ``u`` in the modified view
``H'`` starts with an edge to ``S`` or to a buyer ``b ∈ B`` (the edges
bought towards ``u``, which she cannot drop: the forced rows), so for
every other visible ``v``::

    d_{H'}(u, v) = 1 + min_{s ∈ S ∪ B} D[s, v]

with ``D`` the distances of ``H − u`` (the SumNCG strategy space is
exactly the node set of ``H − u``, so strategies are sets of its rows).
The column minimum of at most ``|S| + |B|`` rows gives a candidate's
realised distance sum, its unreached count and its Proposition 2.2
frontier veto: the integers :func:`~repro.core.deviations.view_cost` and
:func:`~repro.core.deviations.deviation_is_forbidden_sum` read off a BFS of
the copied view, fed into the same float expressions, so every cost and
``∆`` is bit-identical to :func:`~repro.core.deviations.worst_case_delta`.

:func:`sum_reply` runs one reply — the pruned class enumeration or one
first-improvement hill climb — and is the ``sum_reply`` kernel of the
numpy backend (see :mod:`repro.kernels` for the contract).
:func:`repro.core.best_response.best_response_sum_exhaustive` and
:func:`~repro.core.best_response.best_response_sum_local_search` call the
resolved backend's kernel once per reply or climb; the unpruned
enumeration (``prune=False``) and the scalar prices of seeds and restart
starts stay here, in Python.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Sequence

import numpy as np

from repro.kernels.common import COST_EPS, UNREACHABLE

__all__ = ["SumEvaluator", "sum_reply"]

#: Column-minimum rows priced per vectorised batch; bounds the transient
#: ``rows x |H - u|`` scratch of large size classes and swap neighbourhoods.
_SUM_BATCH_ROWS: int = 4096


class SumEvaluator:
    """Prices strategies — sets of rows of ``dist`` — as the SumNCG view cost.

    ``forced`` holds the buyer rows, ``frontier_columns`` the frontier
    vertices' columns and ``frontier_limits`` the largest column minimum
    each may keep (its distance from the player minus one) before the
    Proposition 2.2 veto fires.  ``beta`` is the cost model's
    ``unreachable_distance``.  Scalar costs are memoised per strategy for
    the lifetime of one reply.
    """

    def __init__(
        self,
        dist: np.ndarray,
        forced: Sequence[int],
        frontier_columns: np.ndarray,
        frontier_limits: np.ndarray,
        alpha: float,
        beta: float,
    ) -> None:
        self.dist = dist
        self.alpha = alpha
        self.beta = beta
        buyers = list(forced)
        self.base = (
            dist[buyers].min(axis=0)
            if buyers
            else np.full(dist.shape[0], UNREACHABLE, dtype=dist.dtype)
        )
        # The veto fires when 1 + minimum > reference, i.e. minimum >
        # reference - 1 (UNREACHABLE exceeds every finite limit).
        self.frontier_columns = frontier_columns
        self.frontier_limits = frontier_limits
        self._costs: dict[frozenset[int], tuple[float, bool]] = {}

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

        ``size`` is the strategies' common size.  The cost is ``α·|S| +
        usage_sum(finite sum, unreached)`` exactly as
        :func:`~repro.core.deviations.view_cost` computes it: the fold is
        :meth:`~repro.core.cost_models.CostModel.fold_sum`, ``β`` added per
        unreached vertex only where there is one.
        """
        reached = minima != UNREACHABLE
        counts = np.count_nonzero(reached, axis=1)
        # Each reached vertex sits one hop further than its row minimum;
        # u herself adds 0 to the sum and is never unreached.
        sums = np.add.reduce(np.where(reached, minima, 0), axis=1, dtype=np.int64) + counts
        unreached = minima.shape[1] - counts
        usages = sums.astype(np.float64)
        mask = unreached > 0
        if mask.any():
            usages[mask] += self.beta * unreached[mask]
        costs = self.alpha * size + usages
        if not self.frontier_columns.size:
            return costs, np.zeros(len(minima), dtype=bool)
        frontier = minima[:, self.frontier_columns]
        return costs, np.logical_or.reduce(frontier > self.frontier_limits, axis=1)

    def cost(self, strategy: frozenset[int]) -> tuple[float, bool]:
        """``(view_cost, forbidden)`` of one strategy, memoised per reply."""
        known = self._costs.get(strategy)
        if known is None:
            minima = self.minimum(list(strategy))[None, :]
            costs, forbidden = self.price(minima, len(strategy))
            known = (float(costs[0]), bool(forbidden[0]))
            self._costs[strategy] = known
        return known

    def remember(self, strategy: frozenset[int], cost: float) -> None:
        """Record the cost of an allowed strategy priced in a batch."""
        self._costs[strategy] = (cost, False)

    def delta(self, current: frozenset[int], new: frozenset[int]) -> float:
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


def _price_class(
    evaluator: SumEvaluator, rows: np.ndarray, size: int, current_cost: float
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


def _enumerate(
    evaluator: SumEvaluator,
    candidates: list[int],
    num_forced: int,
    current: frozenset[int],
    current_cost: float,
    prune_cost: float,
    prune: bool,
) -> tuple[frozenset[int], float]:
    """The exact reply: the first strictly cheapest subset in canonical order.

    With ``prune`` the subset-size classes are priced in order of their
    usage lower bound — every visible node at distance 1 if
    adjacent-after-move, else at ``min(2, β)`` — and the first class whose
    bound cannot beat ``prune_cost`` (the cheapest reply known so far,
    tightened by every class priced) ends the pricing.  Pruning never moves
    the reply: the priced classes are scanned in size-then-combinations
    order either way, keeping the first subset strictly better by
    ``COST_EPS``, and every pruned subset is strictly worse than one
    priced.
    """
    num_others = len(candidates)
    # Any node not adjacent after the move sits at distance >= 2 if reached,
    # or costs the unreachable penalty beta >= 1 — so min(2, beta) lower
    # bounds its contribution (= 2 under the strict model).
    far_cost = min(2.0, evaluator.beta)

    def class_bound(size: int) -> float:
        near = min(size + num_forced, num_others)
        return evaluator.alpha * size + near + (num_others - near) * far_cost

    # Pruning prices the most promising classes first, so the incumbent is
    # (near) optimal before the bound is checked against the rest.
    sizes = range(num_others + 1)
    if prune:
        sizes = sorted(sizes, key=lambda size: (class_bound(size), size))
    rows = np.array(candidates, dtype=np.intp)
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
    return best_strategy, best_cost


def _neighbourhood(evaluator: SumEvaluator, strategy: frozenset[int], candidates: list[int]):
    """The add / drop / swap neighbourhood of ``strategy``, in scan order.

    Yields ``(size, minima, member)`` batches: the batch's strategy size,
    the strategies' column minima, and ``member(i)`` building the ``i``-th
    strategy of the batch.  The order is the single climb's — every add,
    every drop, then every swap, removed-major, each list in candidate
    order — and each batch is built only when the climb asks for it, so a
    step that finds an improving add never prices its drops or swaps.
    Swaps come in batches of at most :data:`_SUM_BATCH_ROWS` rows.
    """
    present = [c for c in candidates if c in strategy]
    absent = [c for c in candidates if c not in strategy]
    absent_dist = evaluator.dist[absent]
    size = len(present)
    if absent:
        yield (
            size + 1,
            np.minimum(evaluator.minimum(present), absent_dist),
            lambda i: strategy | {absent[i]},
        )
    if not present:
        return
    without = evaluator.leave_one_out(present)
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


def _hill_climb(
    evaluator: SumEvaluator,
    candidates: list[int],
    start_strategy: frozenset[int],
    start_cost: float,
    max_iterations: int,
) -> tuple[frozenset[int], float]:
    """One first-improvement hill climb from ``start_strategy``.

    Applies the first improving single add / drop / swap move (among the
    Proposition 2.2 allowed ones) until no single move improves the in-view
    cost; returns the local optimum and its cost.  The cost is a running
    sum of ``∆`` from ``start_cost``; each step's ``∆`` are taken from the
    directly priced cost of the strategy it leaves.
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


def sum_reply(
    dist: np.ndarray,
    forced: Sequence[int],
    frontier_columns: np.ndarray,
    frontier_limits: np.ndarray,
    alpha: float,
    beta: float,
    candidates: np.ndarray,
    current: Sequence[int],
    start: Sequence[int] | None,
    start_cost: float,
    max_iterations: int | None,
    prune: bool = True,
) -> tuple[float, float, tuple[int, ...] | None]:
    """One SumNCG reply over ``dist``: the exact enumeration or one climb.

    ``candidates`` lists the strategy space's rows in scan order and
    ``current`` the rows of the player's strategy.  Returns ``(current
    cost, reply cost, selection)``; ``selection`` holds the reply's rows
    in candidate order, or is ``None`` when the reply is the strategy the
    search started from.

    ``max_iterations=None`` runs the class enumeration (pruned unless
    ``prune=False``, the benchmark reference); ``start``, when given, is a
    known strategy whose cost seeds the pruning bound.  Otherwise one hill
    climb of at most ``max_iterations`` steps runs from ``start`` at its
    accumulated cost ``start_cost`` — from ``current`` at its own cost when
    ``start`` is ``None``.
    """
    evaluator = SumEvaluator(dist, forced, frontier_columns, frontier_limits, alpha, beta)
    candidates = np.asarray(candidates).tolist()
    current = frozenset(current)
    current_cost = evaluator.cost(current)[0]
    if max_iterations is None:
        origin = current
        prune_cost = current_cost
        if start is not None:
            delta = evaluator.delta(current, frozenset(start))
            if not math.isinf(delta):
                prune_cost = min(prune_cost, current_cost + delta)
        strategy, cost = _enumerate(
            evaluator, candidates, len(forced), current, current_cost, prune_cost, prune
        )
    else:
        if start is None:
            origin, start_cost = current, current_cost
        else:
            origin = frozenset(start)
        strategy, cost = _hill_climb(evaluator, candidates, origin, start_cost, max_iterations)
    if strategy == origin:
        return current_cost, cost, None
    return current_cost, cost, tuple(c for c in candidates if c in strategy)
