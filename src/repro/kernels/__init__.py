"""Pluggable compiled kernel backends for the hot loops.

Every layer of the code base — views, metrics, robustness, the sweep
service — bottoms out in six primitives: the multi-source BFS level
expansion behind :func:`repro.graphs.traversal.batched_bfs_distances`,
the *fused* BFS reduction behind
:func:`repro.graphs.traversal.reduce_bfs_distances` (per-source
eccentricity / finite-distance sum / unreached count / view size, emitted
without ever materialising a distance row), the one-player view behind
:class:`repro.engine.views.IncrementalViewCache` (a player's visible
nodes, their distances and the CSR of her view without her, in one call
— how the engine settles every view), the branch-and-bound
recursion behind
:func:`repro.solvers.set_cover.branch_and_bound_set_cover`, the MaxNCG
reply behind :func:`repro.core.best_response.best_response_max` (the
incumbent's price and the loop that runs that search once per
eccentricity guess, over ``bfs``'s distances), and the
SumNCG reply behind
:func:`~repro.core.best_response.best_response_sum_exhaustive` and
:func:`~repro.core.best_response.best_response_sum_local_search` (the
pruned exact enumeration, or one hill climb).  This package hosts
interchangeable implementations of exactly those kernels:

``numpy``
    The reference.  Exactly the chunked-numpy code the repo was built
    on; always available.
``native``
    C sources compiled once per host with the system compiler and bound
    via :mod:`ctypes` (see :mod:`repro.kernels.native_backend`).  The
    auto-detected default wherever a C compiler builds it; unavailable
    (with a silent numpy fallback) when none is present.

**Bit-identity is the contract.**  Whatever backend runs, distance
matrices (including ``radius`` truncation and ``UNREACHABLE`` marks),
views, selected covers (including warm-start tie-break order), MaxNCG and
SumNCG replies and therefore entire dynamics trajectories are identical
to the numpy reference; the equivalence suites in
``tests/graphs/test_kernel_backends.py``,
``tests/solvers/test_set_cover.py``, ``tests/core/test_max_reply.py``
and ``tests/core/test_sum_reply.py`` pin this.

Selection mirrors ``ENGINE_DEFAULT_SOLVER``: explicit argument >
session override (:func:`set_default_backend` / :func:`use_backend`) >
``REPRO_KERNEL_BACKEND`` environment variable > auto-detect (native if
it builds, else numpy).  A *registered but unavailable* choice (no C
compiler, an unusable kernel cache directory) falls back to numpy
silently so compiled speed never becomes a hard dependency; an
*unknown* name raises :class:`ValueError` so typos fail loudly.
``REPRO_KERNEL_BACKEND=numpy`` pins the reference.  Outside explicit
arguments the backend is process state: no sweep spec or service config
carries it, and forked sweep workers inherit the parent's choice.  Every
kernel runs on the calling thread.

Kernel contracts (wrappers own validation, allocation and trivial
cases; kernels assume validated inputs):

``bfs(indptr, indices, sources, radius, dist) -> dist``
    CSR ``indptr``/``indices`` (int64), ``sources`` int64 vertex ids,
    ``radius`` int or None, ``dist`` a ``(len(sources), n)`` int32
    matrix pre-filled with ``UNREACHABLE``; fills it in place.
``bfs_reduce(indptr, indices, sources, radius, view_radius, ecc_out,
sum_out, unreached_out, view_size_out)``
    The fused counterpart of ``bfs`` + a per-row fold: emits, per
    source, the eccentricity (largest finite distance), the sum of
    finite distances, the unreached-node count and — when
    ``view_radius`` is not None — the number of nodes within
    ``view_radius``; all four outputs are caller-allocated int64
    vectors of ``len(sources)`` filled in place, and *no*
    ``(len(sources), n)`` distance matrix is ever materialised.
    Because the outputs are order-independent aggregates of the unique
    BFS distance function, implementations may traverse however they
    like and visit the sources in any order, as long as each source's
    four values land at its own position — yet stay bit-identical, by
    definition, to folding the rows ``bfs`` would have produced
    (``radius`` truncation counts truncated nodes as unreached,
    exactly like the materialised fold).  The native backend runs an
    MS-BFS (64 sources per uint64 bitmask batch; Then et al., VLDB
    2015): it orders the sources by a BFS rank of their nodes so that
    each batch of 64 sits close together and shares its frontier,
    expands only the listed frontier nodes, and per level scans either
    the touched nodes or all ``n`` for fresh bits, whichever the level's
    expansion work makes cheaper.
``view(indptr, indices, player, radius) -> (nodes, dist, sub_indptr, sub_indices)``
    CSR ``indptr``/``indices`` (int64) whose rows are sorted, ``player``
    a vertex id, ``radius`` int or None.  Returns four int64 arrays:
    the vertices within ``radius`` of ``player`` other than her (every
    other vertex when ``radius`` is None), ascending; their distances
    from her (``UNREACHABLE`` for the unreached, which only ``None``
    lists); and the CSR of the subgraph they induce, in their positions,
    rows sorted.  All three are unique given sorted input rows, so any
    traversal matches the reference.
``cover_search(coverage, order_by_size, best_size, best_selection)``
    ``coverage`` a ``(num_candidates, num_elements)`` boolean/uint8
    matrix, ``order_by_size`` the candidate iteration order, and the
    incumbent to beat; returns the tightened ``(size, selection)``
    (unchanged objects when nothing smaller exists).
``max_reply(dist, forced, current, alpha, beta, warm_start, greedy) -> (current_cost, cost, selection | None)``
    One MaxNCG reply.  ``dist`` is the ``(n, n)`` int32 all-pairs
    distance matrix of a player's view without her, ``H − u``
    (``UNREACHABLE`` marks, as ``bfs`` fills it); ``forced`` the sorted
    rows of her buyers, ``current`` the rows of her current strategy,
    ``alpha`` the edge price and ``beta`` the cost model's unreachable
    distance (``inf`` under the strict model).  The kernel prices the
    current strategy as
    :func:`~repro.solvers.set_cover.max_view_cost` does: ``1 +`` the
    column minima over its rows and the forced ones give her distances,
    and the cost is ``alpha * len(current)`` plus the eccentricity over
    the reached columns — ``max(eccentricity, beta)`` when one is
    unreached.  Starting from that incumbent, for each eccentricity guess
    ``h = 1 .. n`` while ``h < best_cost - COST_EPS``: a cover of ``dist
    <= h - 1`` by the non-forced rows, over the columns no forced row
    covers.  With ``greedy`` it is the greedy cover
    (:func:`~repro.solvers.set_cover.greedy_set_cover`), never searched;
    otherwise the minimum cover, solved exactly as
    :func:`~repro.solvers.set_cover.branch_and_bound_set_cover` solves it
    — with ``warm_start``, capped at ``ceil((best_cost - COST_EPS - h) /
    alpha)`` (in doubles) and seeded with the previous guess's cover;
    cold, neither.  A cover of size ``s`` replaces the incumbent when
    ``alpha * s + h < best_cost - COST_EPS``.  Returns the current cost,
    the final cost and the last accepted cover's rows in solver order, or
    ``None`` when nothing beat the current strategy.
``sum_reply(dist, forced, frontier_columns, frontier_limits, alpha, beta,
candidates, current, start, start_cost, max_iterations) -> (current_cost,
cost, selection | None)``
    One SumNCG reply over the same ``dist`` and sorted ``forced`` rows
    (:func:`repro.solvers.sum_reply.sum_reply` is the reference).  A
    strategy — a set of rows — reaches column ``v`` at ``1 + m_v``, with
    ``m`` the column minimum over its rows and the forced ones; it costs
    ``alpha * size`` plus the finite sum as a double, plus ``beta *
    unreached`` only when a column is ``UNREACHABLE`` (``beta`` is the
    cost model's ``unreachable_distance``, ``inf`` under the strict
    model), and it is forbidden (Proposition 2.2) when some
    ``frontier_columns[i]`` has ``m > frontier_limits[i]``.  A move's
    ``∆`` is ``inf`` when forbidden, ``0.0`` from and to infinite costs,
    ``-inf`` from an infinite to a finite one, else the cost difference.
    ``candidates`` lists the strategy space's rows in scan order and
    ``current`` the player's rows.  With ``max_iterations=None``, the
    pruned enumeration: size classes in ``(bound, size)`` order, the
    bound ``alpha*size + near + (others-near)*far_cost`` evaluated in
    that order (``near = min(size + |forced|, others)``, ``far_cost =
    min(2, beta)``); pricing stops at the first class whose bound exceeds
    ``prune_cost + COST_EPS``, where ``prune_cost`` starts at the current
    cost, takes ``current_cost + ∆`` of an allowed ``start`` and after
    each priced class ``current_cost +`` its smallest finite ``∆``.
    Otherwise one first-improvement climb of at most ``max_iterations``
    steps from ``start`` at ``start_cost`` (from ``current`` at its cost
    when ``start`` is None).  Returns the current cost, the reply's cost
    and its rows in candidate order, or ``None`` when the reply is where
    the search started.

Tie-breaks, stated once for ``cover_search`` and ``max_reply``: the
greedy incumbent takes the first row of maximum gain; a still-covering
warm start wins ties with greedy, and at the root lower bound it is the
answer; the search branches on the first uncovered column with the
fewest covering rows, tries rows in ``np.argsort(-cover_sizes)`` order
(numpy's default sort, so its order among equal sizes is numpy's), and
replaces its incumbent only with a strictly smaller cover; a later guess
replaces the reply only when strictly cheaper by ``COST_EPS``.

And for ``sum_reply``: the enumeration scans every priced subset in
size-then-``itertools.combinations`` order (positions in ``candidates``)
and keeps the first with ``current_cost + ∆ < best - COST_EPS`` that
differs from ``current`` — none when the current cost is infinite — so
pruning never moves the reply.  Each climb step prices the strategy it
leaves directly (``old_cost``, the base of its ``∆``), then scans every
add, then every drop, then every swap (removed-major), each list in
candidate order, and takes the first move with ``best + ∆ < best -
COST_EPS``, where ``best`` is the running sum of the taken ``∆`` from
``start_cost``; an infinite ``best`` ends the climb.

To add another backend (Cython, Rust over cffi, …): implement the
functions above with bit-identical semantics, raise
:class:`KernelUnavailableError` from the factory when the toolchain is
missing, and :func:`register_backend` a zero-argument factory for it —
:mod:`repro.kernels.native_backend` is the worked example.  All six
kernels are required: ``bfs``, ``bfs_reduce``, ``view``,
``cover_search``, ``max_reply`` and ``sum_reply``.  After one all-pairs
``bfs`` of ``H − u``, ``max_reply`` is the rest of a MaxNCG memo miss of
the engine — the incumbent's price and the guess loop with
``cover_search``'s recursion — so a backend gains most by running it
without leaving its own language; the numpy backend composes it from its
other kernels.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterator

__all__ = [
    "ENV_VAR",
    "KernelBackend",
    "KernelUnavailableError",
    "available_backends",
    "get_backend",
    "register_backend",
    "registered_backends",
    "resolve_backend",
    "set_default_backend",
    "use_backend",
]

#: Environment variable consulted when no explicit backend is given.
ENV_VAR = "REPRO_KERNEL_BACKEND"

#: Probe order for auto-detection: the compiled kernels wherever a C
#: compiler builds them (once per host, cached), else the reference.
AUTO_ORDER = ("native", "numpy")


class KernelUnavailableError(RuntimeError):
    """Raised when a registered backend cannot be built in this environment."""


@dataclass(frozen=True)
class KernelBackend:
    """A bound set of kernels plus identification metadata.

    ``threads`` is always 1: every kernel runs on the calling thread.  It
    stays in the record because benchmark host fingerprints report it.
    """

    name: str
    bfs: Callable = field(repr=False)
    bfs_reduce: Callable = field(repr=False)
    view: Callable = field(repr=False)
    cover_search: Callable = field(repr=False)
    max_reply: Callable = field(repr=False)
    sum_reply: Callable = field(repr=False)
    compiled: bool = False
    threads: int = 1


def _build_numpy() -> KernelBackend:
    from repro.kernels import numpy_backend

    return KernelBackend(
        name="numpy",
        bfs=numpy_backend.bfs,
        bfs_reduce=numpy_backend.bfs_reduce,
        view=numpy_backend.view,
        cover_search=numpy_backend.cover_search,
        max_reply=numpy_backend.max_reply,
        sum_reply=numpy_backend.sum_reply,
        compiled=False,
    )


def _build_native() -> KernelBackend:
    from repro.kernels import native_backend

    native_backend.load_library()  # raises KernelUnavailableError without a compiler
    return KernelBackend(
        name="native",
        bfs=native_backend.bfs,
        bfs_reduce=native_backend.bfs_reduce,
        view=native_backend.view,
        cover_search=native_backend.cover_search,
        max_reply=native_backend.max_reply,
        sum_reply=native_backend.sum_reply,
        compiled=True,
    )


_FACTORIES: dict[str, Callable[[], KernelBackend]] = {
    "numpy": _build_numpy,
    "native": _build_native,
}

#: Build results keyed by name, including failures (``None``) so a
#: missing toolchain is probed once per process, not once per call.
_BUILT: dict[str, KernelBackend | None] = {}

_default_override: str | None = None


def _check_registered(name: str) -> None:
    if name not in _FACTORIES:
        raise ValueError(
            f"unknown kernel backend {name!r}; registered: {sorted(_FACTORIES)}"
        )


def register_backend(name: str, factory: Callable[[], KernelBackend]) -> None:
    """Register (or replace) a zero-argument backend factory under ``name``."""
    _FACTORIES[name] = factory
    _BUILT.pop(name, None)


def registered_backends() -> tuple[str, ...]:
    """All registered backend names, available in this environment or not."""
    return tuple(_FACTORIES)


def _try_build(name: str) -> KernelBackend | None:
    if name in _BUILT:
        return _BUILT[name]
    try:
        backend = _FACTORIES[name]()
    except KernelUnavailableError:
        backend = None
    _BUILT[name] = backend
    return backend


def get_backend(name: str) -> KernelBackend:
    """Build ``name`` strictly: unknown names and unavailable backends raise."""
    _check_registered(name)
    backend = _try_build(name)
    if backend is None:
        raise KernelUnavailableError(
            f"kernel backend {name!r} is registered but unavailable here"
        )
    return backend


def available_backends() -> tuple[str, ...]:
    """Names of registered backends that actually build in this environment."""
    return tuple(name for name in _FACTORIES if _try_build(name) is not None)


def resolve_backend(choice: str | KernelBackend | None = None) -> KernelBackend:
    """Resolve a backend: argument > session override > env var > auto.

    ``choice`` may be a :class:`KernelBackend` (returned as-is), a
    registered name, or ``None``.  Names that are registered but cannot
    be built here fall back to the numpy reference silently — optional
    acceleration must never turn into a hard dependency — while unknown
    names raise :class:`ValueError` at every resolution tier.
    """
    if isinstance(choice, KernelBackend):
        return choice
    name = choice if choice is not None else _default_override
    if name is None:
        name = os.environ.get(ENV_VAR) or None
    if name is not None:
        _check_registered(name)
        return _try_build(name) or get_backend("numpy")
    for candidate in AUTO_ORDER:
        backend = _try_build(candidate)
        if backend is not None:
            return backend
    return get_backend("numpy")  # pragma: no cover - numpy always builds


def set_default_backend(name: str | None) -> None:
    """Set (or clear, with ``None``) the process-wide backend override.

    The override outranks ``REPRO_KERNEL_BACKEND`` but not explicit
    per-call arguments.  Forked sweep workers inherit it, like the
    environment variable.
    """
    global _default_override
    if name is not None:
        _check_registered(name)
    _default_override = name


@contextmanager
def use_backend(name: str | None) -> Iterator[None]:
    """Scoped :func:`set_default_backend`; ``None`` is a no-op scope."""
    global _default_override
    if name is None:
        yield
        return
    previous = _default_override
    set_default_backend(name)
    try:
        yield
    finally:
        _default_override = previous
