"""Minimum set cover with optional forced (zero-cost) sets.

An instance consists of a boolean coverage matrix ``cover[c, e]`` saying that
candidate ``c`` covers element ``e``, plus an optional list of candidates
that are *forced* into the solution and do not count towards the objective.
The objective is the number of non-forced candidates selected.  This is
exactly the structure of the paper's best-response subproblem: candidates are
potential edge targets, elements are the vertices that must end up within the
guessed eccentricity, and forced candidates are the neighbours whose edge
towards the player was bought by the *other* endpoint (the player cannot
remove it but also does not pay for it).

Three solvers with a common interface are provided; see the package
docstring for the rationale.  :func:`max_reply` runs them over every
eccentricity guess of a MaxNCG best response, :func:`max_view_cost`
prices the incumbent it has to beat and :func:`priced_max_reply` composes
the two into a whole reply.
"""

from __future__ import annotations

import math
import warnings
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.kernels import KernelBackend, resolve_backend
from repro.kernels.common import COST_EPS, UNREACHABLE

__all__ = [
    "SetCoverInstance",
    "SetCoverResult",
    "greedy_set_cover",
    "branch_and_bound_set_cover",
    "milp_set_cover",
    "solve_set_cover",
    "max_reply",
    "max_view_cost",
    "priced_max_reply",
    "SOLVERS",
    "WARM_START_SOLVERS",
]

#: Solvers that actually consume ``warm_start`` / ``upper_bound`` hints.
#: ``milp`` (scipy's HiGHS front-end) exposes neither an incumbent-injection
#: hook nor an objective cutoff, and ``greedy`` rebuilds its cover from
#: scratch deterministically, so hints handed to either are dead weight —
#: :func:`solve_set_cover` warns loudly when an exact solver silently drops
#: them (greedy is exempt: an approximation has no search to prune).
WARM_START_SOLVERS: frozenset[str] = frozenset({"branch_and_bound"})


@dataclass
class SetCoverInstance:
    """A (possibly constrained) minimum set cover instance.

    Attributes
    ----------
    coverage:
        Boolean array of shape ``(num_candidates, num_elements)``.
    forced:
        Indices of candidates that are part of every feasible solution at no
        cost.
    candidate_labels / element_labels:
        Optional labels used to translate solutions back to the caller's
        domain (e.g. graph nodes).
    """

    coverage: np.ndarray
    forced: tuple[int, ...] = ()
    candidate_labels: list = field(default_factory=list)
    element_labels: list = field(default_factory=list)

    def __post_init__(self) -> None:
        self.coverage = np.asarray(self.coverage, dtype=bool)
        if self.coverage.ndim != 2:
            raise ValueError("coverage must be a 2-D boolean matrix")
        num_candidates = self.coverage.shape[0]
        if any(not 0 <= idx < num_candidates for idx in self.forced):
            raise ValueError("forced candidate index out of range")
        if self.candidate_labels and len(self.candidate_labels) != num_candidates:
            raise ValueError("candidate_labels length mismatch")
        if self.element_labels and len(self.element_labels) != self.coverage.shape[1]:
            raise ValueError("element_labels length mismatch")

    @property
    def num_candidates(self) -> int:
        return self.coverage.shape[0]

    @property
    def num_elements(self) -> int:
        return self.coverage.shape[1]

    def residual(self) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(free_candidates, uncovered_elements)`` after forced sets.

        ``free_candidates`` is an index array of non-forced candidates and
        ``uncovered_elements`` an index array of elements not covered by any
        forced candidate.
        """
        if not self.forced:
            return np.arange(self.num_candidates), np.arange(self.num_elements)
        forced_mask = np.zeros(self.num_candidates, dtype=bool)
        forced_mask[list(self.forced)] = True
        covered = self.coverage[forced_mask].any(axis=0)
        return np.flatnonzero(~forced_mask), np.flatnonzero(~covered)

    def is_feasible_selection(self, selected: set[int]) -> bool:
        """Check that forced + selected candidates cover every element."""
        chosen = set(self.forced) | set(selected)
        if not chosen:
            return self.num_elements == 0
        mask = np.zeros(self.num_candidates, dtype=bool)
        mask[list(chosen)] = True
        return bool(self.coverage[mask].any(axis=0).all()) if self.num_elements else True


@dataclass(frozen=True)
class SetCoverResult:
    """Outcome of a set-cover solve.

    ``selected`` contains only the *paid* (non-forced) candidate indices;
    ``objective`` is ``len(selected)``.  ``optimal`` records whether the
    solver guarantees optimality (greedy does not).  ``feasible`` is False
    when no cover exists at all (some element covered by no candidate).
    """

    selected: tuple[int, ...]
    objective: int
    optimal: bool
    feasible: bool
    solver: str

    def selected_labels(self, instance: SetCoverInstance) -> list:
        if not instance.candidate_labels:
            return list(self.selected)
        return [instance.candidate_labels[idx] for idx in self.selected]


def _infeasible(solver: str) -> SetCoverResult:
    return SetCoverResult(selected=(), objective=0, optimal=True, feasible=False, solver=solver)


def _residual_or_result(
    instance: SetCoverInstance, solver: str
) -> tuple[np.ndarray, np.ndarray] | SetCoverResult:
    """The residual instance after forced sets, or the trivial result.

    Returns ``(free, coverage)`` — the index array of non-forced candidates
    and the ``(len(free), #uncovered)`` boolean coverage of the elements no
    forced candidate covers — or a finished :class:`SetCoverResult` for the
    no-element / no-candidate / uncoverable-element corner cases.  Every
    solver builds its residual here exactly once per solve.
    """
    free, uncovered = instance.residual()
    if uncovered.size == 0:
        return SetCoverResult((), 0, True, True, solver)
    if free.size == 0:
        return _infeasible(solver)
    coverage = instance.coverage[np.ix_(free, uncovered)]
    # An element covered by no candidate at all makes the instance infeasible.
    if not bool(coverage.any(axis=0).all()):
        return _infeasible(solver)
    return free, coverage


def _greedy_positions(coverage: np.ndarray) -> list[int]:
    """Greedy picks over a coverable residual matrix, as row positions.

    Repeatedly takes the row covering the most still-uncovered columns;
    ties go to the first such row (``argmax``).  Gains are one
    matrix-vector product per pick; float32 counts are exact below 2**24
    columns, so the picks equal the boolean ``(coverage & remaining).sum``.
    """
    weights = coverage.astype(np.float32)
    remaining = np.ones(coverage.shape[1], dtype=np.float32)
    picks: list[int] = []
    while remaining.any():
        best = int((weights @ remaining).argmax())
        picks.append(best)
        remaining[coverage[best]] = 0.0
    return picks


def _warm_positions(
    free: np.ndarray, coverage: np.ndarray, warm_start: Sequence[int]
) -> list[int] | None:
    """Map a warm-start selection to row positions of the residual, or ``None``.

    A warm start is a set of *original* (non-forced) candidate indices that
    formed a feasible cover of an easier instance — typically the previous
    eccentricity guess's solution in the best-response ``h`` loop, where
    coverage grows monotonically so the old cover stays feasible.  Anything
    that fails validation (out-of-range/forced index, or no longer a cover)
    is silently ignored: a warm start is an optimisation hint, never a
    correctness input.  Forced sets cover exactly the elements missing from
    the residual, so covering every residual column is the same test as
    :meth:`SetCoverInstance.is_feasible_selection`.
    """
    selection = sorted({int(idx) for idx in warm_start})
    if not selection or selection[0] < int(free[0]) or selection[-1] > int(free[-1]):
        return None
    positions = np.searchsorted(free, selection)
    if not np.array_equal(free[positions], selection):
        return None
    if not bool(coverage[positions].any(axis=0).all()):
        return None
    return positions.tolist()


def _selection_result(free: np.ndarray, positions: list[int]) -> SetCoverResult:
    """The optimal branch-and-bound result for residual row ``positions``."""
    selected = tuple(int(free[pos]) for pos in positions)
    return SetCoverResult(selected, len(selected), True, True, "branch_and_bound")


def greedy_set_cover(
    instance: SetCoverInstance,
    upper_bound: int | None = None,
    warm_start: Sequence[int] | None = None,
    backend: str | KernelBackend | None = None,
) -> SetCoverResult:
    """Classical greedy ``H_n``-approximation: repeatedly pick the candidate
    covering the most still-uncovered elements.

    ``warm_start`` and ``upper_bound`` are accepted for interface uniformity
    and ignored: greedy rebuilds its cover from scratch deterministically.
    ``backend`` likewise: greedy has no kernel to accelerate.
    """
    residual = _residual_or_result(instance, "greedy")
    if isinstance(residual, SetCoverResult):
        return residual
    free, coverage = residual
    selected = tuple(int(free[pos]) for pos in _greedy_positions(coverage))
    return SetCoverResult(selected, len(selected), False, True, "greedy")


def branch_and_bound_set_cover(
    instance: SetCoverInstance,
    upper_bound: int | None = None,
    warm_start: Sequence[int] | None = None,
    backend: str | KernelBackend | None = None,
) -> SetCoverResult:
    """Exact branch-and-bound solver, kernel-backed.

    Branches on the uncovered element with the fewest covering candidates
    (the most constrained element) and prunes with

    * the best incumbent found so far (initialised from greedy, tightened by
      a feasible ``warm_start`` selection when one is supplied), and
    * the simple lower bound ``ceil(#uncovered / max coverage size)``.

    A warm start never changes the returned objective (the search still
    proves optimality); it only prunes earlier.  When the warm-start cover
    ties the greedy incumbent it is preferred, so repeated solves over a
    monotonically growing coverage (the best-response ``h`` loop) keep
    returning the same selection until a strictly smaller cover appears.

    The root lower bound also settles whole solves before any work: a cap
    below it is infeasible without running greedy, a valid warm start of
    exactly that size is returned as the optimum, and the search is skipped
    once the incumbent meets it.  Each shortcut returns the selection the
    full greedy + search path would return.

    The recursion itself runs on the selected kernel backend
    (:mod:`repro.kernels`); incumbent seeding, candidate ordering and the
    residual-instance setup stay here, so every backend searches the same
    tree with the same tie-breaks and returns the identical selection.

    Intended for the moderate instance sizes of the experiments (views of at
    most a few hundred vertices); cross-checked against the MILP solver in
    the test suite.
    """
    residual = _residual_or_result(instance, "branch_and_bound")
    if isinstance(residual, SetCoverResult):
        return residual
    free, coverage = residual
    kernel = resolve_backend(backend)

    # Root lower bound: no cover is smaller than this.  Every residual
    # column is coverable, so the largest row is non-empty.
    cover_sizes = coverage.sum(axis=1)
    lower = -(-coverage.shape[1] // int(cover_sizes.max()))
    if upper_bound is not None and lower > upper_bound:
        # Greedy, a warm start and the search all exceed the cap.
        return _infeasible("branch_and_bound")
    warm = None if warm_start is None else _warm_positions(free, coverage, warm_start)
    if warm is not None and len(warm) == lower:
        # A warm start at the lower bound is optimal and wins every tie
        # with greedy (which cannot be smaller), so greedy and the search
        # would both hand it back unchanged.
        return _selection_result(free, warm)

    greedy = _greedy_positions(coverage)
    best_size = len(greedy)
    if upper_bound is not None:
        best_size = min(best_size, upper_bound)
    best_selection: list[int] | None = greedy if len(greedy) <= best_size else None
    if warm is not None and len(warm) <= best_size:
        best_size = len(warm)
        best_selection = warm

    if lower < best_size:
        # The search only returns covers strictly smaller than best_size,
        # which the lower bound rules out otherwise.
        best_size, best_selection = kernel.cover_search(
            coverage, np.argsort(-cover_sizes), best_size, best_selection
        )
    if best_selection is None:
        return _infeasible("branch_and_bound")
    return _selection_result(free, best_selection)


def milp_set_cover(
    instance: SetCoverInstance,
    upper_bound: int | None = None,
    warm_start: Sequence[int] | None = None,
    backend: str | KernelBackend | None = None,
) -> SetCoverResult:
    """Exact solve through ``scipy.optimize.milp`` (HiGHS backend).

    Formulation: minimise ``sum_c x_c`` subject to
    ``sum_{c covers e} x_c >= 1`` for every residual element ``e``,
    ``x_c in {0, 1}``, over the non-forced candidates only (forced
    candidates are folded into the residual instance).

    ``scipy.optimize.milp`` exposes neither an incumbent-injection hook nor
    an objective cutoff, so ``warm_start``/``upper_bound`` are only
    forwarded to the branch-and-bound fallback taken on a HiGHS failure;
    use ``method="branch_and_bound"`` to actually exploit warm starts.
    """
    residual = _residual_or_result(instance, "milp")
    if isinstance(residual, SetCoverResult):
        return residual
    from scipy import optimize, sparse

    free, coverage = residual
    num_free, num_elements = coverage.shape
    constraint_matrix = sparse.csr_matrix(coverage.T.astype(float))
    constraints = optimize.LinearConstraint(constraint_matrix, lb=np.ones(num_elements))
    integrality = np.ones(num_free)
    bounds = optimize.Bounds(lb=np.zeros(num_free), ub=np.ones(num_free))
    result = optimize.milp(
        c=np.ones(num_free),
        constraints=constraints,
        integrality=integrality,
        bounds=bounds,
    )
    if not result.success or result.x is None:
        # HiGHS failure on a feasible instance; fall back to branch and bound.
        return branch_and_bound_set_cover(
            instance, upper_bound=upper_bound, warm_start=warm_start, backend=backend
        )
    chosen = np.flatnonzero(np.round(result.x) >= 0.5)
    selected = tuple(int(free[idx]) for idx in chosen)
    return SetCoverResult(selected, len(selected), True, True, "milp")


#: Registry used by the experiment configuration and the solver ablation.
SOLVERS = {
    "milp": milp_set_cover,
    "branch_and_bound": branch_and_bound_set_cover,
    "greedy": greedy_set_cover,
}


def solve_set_cover(
    instance: SetCoverInstance,
    method: str = "milp",
    upper_bound: int | None = None,
    warm_start: Sequence[int] | None = None,
    backend: str | KernelBackend | None = None,
) -> SetCoverResult:
    """Dispatch to one of the registered solvers (``milp`` by default).

    ``warm_start`` optionally hands the solver a known-feasible selection of
    original candidate indices (e.g. the previous solve of a monotonically
    growing instance).  ``upper_bound`` is honoured by ``branch_and_bound``
    only, where it caps the incumbent: covers *larger* than it are never
    returned, an infeasible result means no cover within the cap exists,
    but a greedy or warm incumbent of exactly the cap size may be returned
    as-is.  ``greedy`` and ``milp`` ignore both hints and may return covers
    of any size, so callers that only profit from covers up to size ``T``
    must pass ``T + 1`` *and* re-check the returned objective regardless of
    method (the best-response loop's cost test does exactly that).  Hints
    never change a within-bound solution's objective.

    ``backend`` selects the kernel backend running the branch-and-bound
    recursion (see :mod:`repro.kernels`); all backends return bit-identical
    selections, so it is purely a speed knob.

    Passing hints to an exact solver that cannot consume them
    (``milp``) raises a :class:`RuntimeWarning`: the caller asked for a
    warm-started solve and would silently get cold re-solves instead.
    ``greedy`` stays quiet — it has no search to prune, so hints are
    meaningless rather than lost performance.
    """
    try:
        solver = SOLVERS[method]
    except KeyError as exc:
        raise ValueError(
            f"unknown solver {method!r}; available: {sorted(SOLVERS)}"
        ) from exc
    if (
        (warm_start is not None or upper_bound is not None)
        and method not in WARM_START_SOLVERS
        and method != "greedy"
    ):
        warnings.warn(
            f"set-cover solver {method!r} cannot consume warm_start/upper_bound "
            "hints (they are only honoured on its branch-and-bound fallback); "
            "use method='branch_and_bound' to exploit warm starts",
            RuntimeWarning,
            stacklevel=2,
        )
    return solver(instance, upper_bound=upper_bound, warm_start=warm_start, backend=backend)


def max_reply(
    dist: np.ndarray,
    forced: tuple[int, ...],
    alpha: float,
    best_cost: float,
    warm_start: bool,
    method: str = "branch_and_bound",
    backend: str | KernelBackend | None = None,
    usage_floor: float = 0.0,
) -> tuple[float, tuple[int, ...] | None]:
    """The MaxNCG best-response loop over eccentricity guesses ``h``.

    ``dist`` holds the distances of the player's view without her and
    ``forced`` the rows of her buyers.  A reply with eccentricity ``h``
    buys a cover of ``dist <= h - 1`` on top of the forced rows and costs
    ``alpha * |cover| + h``; each guess solves that cover with ``method``
    and replaces the incumbent (cost ``best_cost``) only when strictly
    better by ``COST_EPS``.  ``warm_start`` seeds each solve with the
    previous guess's cover (coverage grows with ``h``, so it stays
    feasible) and caps it at the largest size that could still win.
    Returns the final cost and the winning cover's rows, or ``None`` when
    nothing beat ``best_cost``.

    ``usage_floor`` prices each guess at usage ``max(h, usage_floor)``
    instead of ``h`` (break test, size cap and cost): the tolerant models'
    partial-cover regime passes its unreachable penalty ``β`` here.  The
    kernels never pass it.

    This is the ``max_reply`` kernel of the numpy backend (see
    :mod:`repro.kernels` for the contract) and the loop the ``milp`` and
    ``greedy`` ablation solvers run.
    """
    best_selection = None
    previous: tuple[int, ...] | None = None
    # A reply with eccentricity h costs at least its usage, which only grows
    # with h, so once it reaches the incumbent cost no better solution can
    # exist.
    for h in range(1, dist.shape[0] + 1):
        usage = max(h, usage_floor)
        if usage >= best_cost - COST_EPS:
            break
        instance = SetCoverInstance(coverage=dist <= (h - 1), forced=forced)
        if warm_start:
            # Only covers with alpha * size + usage < best_cost can win, so the
            # search is capped at the largest useful size; "infeasible" then
            # means "nothing useful at this h".  While best_cost is infinite
            # (a disconnected incumbent) every size is useful.
            size_cap = (
                int(math.ceil((best_cost - COST_EPS - usage) / alpha))
                if math.isfinite(best_cost)
                else None
            )
            result = solve_set_cover(
                instance, method=method, upper_bound=size_cap,
                warm_start=previous, backend=backend,
            )
        else:
            result = solve_set_cover(instance, method=method, backend=backend)
        if not result.feasible:
            continue
        previous = result.selected
        cost = alpha * result.objective + usage
        if cost < best_cost - COST_EPS:
            best_cost = cost
            best_selection = result.selected
    return best_cost, best_selection


def max_view_cost(
    dist: np.ndarray,
    forced: Sequence[int],
    current: Sequence[int],
    alpha: float,
    beta: float,
) -> float:
    """The MaxNCG view cost of the strategy whose targets are rows ``current``.

    Her distances are ``1 + min`` over the rows of ``dist`` (H − u) of her
    targets and her buyers ``forced``; the cost is ``alpha * len(current)``
    plus :meth:`~repro.core.cost_models.CostModel.usage_max` of them, with
    ``beta`` the unreachable distance (``inf`` under the strict model).
    """
    rows = [*current, *forced]
    eccentricity, unreached = 0, dist.shape[0]
    if rows and unreached:
        minima = dist[rows].min(axis=0)
        farthest = int(minima.max())
        if farthest != UNREACHABLE:
            eccentricity, unreached = farthest + 1, 0
        else:
            reached = minima[minima != UNREACHABLE]
            if reached.size:
                eccentricity = int(reached.max()) + 1
            unreached -= reached.size
    usage = float(eccentricity) if unreached <= 0 else float(max(float(eccentricity), beta))
    return alpha * len(current) + usage


def priced_max_reply(
    dist: np.ndarray,
    forced: Sequence[int],
    current: Sequence[int],
    alpha: float,
    beta: float,
    warm_start: bool,
    method: str = "branch_and_bound",
    backend: str | KernelBackend | None = None,
) -> tuple[float, float, tuple[int, ...] | None]:
    """One MaxNCG reply from the distances of H − u, composed in Python.

    The current strategy's price (:func:`max_view_cost`), then
    :func:`max_reply` with ``method`` from that incumbent: the numpy
    backend's ``max_reply`` kernel, and the ``milp`` ablation's reply.
    Returns ``(current_cost, cost, selection | None)``.
    """
    forced = tuple(int(i) for i in forced)
    current_cost = max_view_cost(dist, forced, current, alpha, beta)
    cost, selection = max_reply(
        dist, forced, alpha, current_cost, warm_start, method=method, backend=backend
    )
    return current_cost, cost, selection
