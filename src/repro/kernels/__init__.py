"""Pluggable compiled kernel backends for the hot loops.

Every layer of the code base — views, metrics, robustness, the sweep
service — bottoms out in three primitives: the multi-source BFS level
expansion behind :func:`repro.graphs.traversal.batched_bfs_distances`,
the *fused* BFS reduction behind
:func:`repro.graphs.traversal.reduce_bfs_distances` (per-source
eccentricity / finite-distance sum / unreached count / view size, emitted
without ever materialising a distance row), and the branch-and-bound
recursion behind
:func:`repro.solvers.set_cover.branch_and_bound_set_cover`.  This package
hosts interchangeable implementations of exactly those kernels:

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
selected covers (including warm-start tie-break order) and therefore
entire dynamics trajectories are identical to the numpy reference; the
equivalence suites in ``tests/graphs/test_kernel_backends.py`` and
``tests/solvers/test_set_cover.py`` pin this.

Selection mirrors ``ENGINE_DEFAULT_SOLVER``: explicit argument >
session override (:func:`set_default_backend` / :func:`use_backend`) >
``REPRO_KERNEL_BACKEND`` environment variable > auto-detect (native if
it builds, else numpy).  A *registered but unavailable* choice (no C
compiler, an unusable kernel cache directory) falls back to numpy
silently so compiled speed never becomes a hard dependency; an
*unknown* name raises :class:`ValueError` so typos fail loudly.
``REPRO_KERNEL_BACKEND=numpy`` pins the reference.

**Threads.**  The native backend additionally takes a ``threads`` knob
parallelising *over sources*: each call splits its sources into slabs
run on threads created for that call, so no thread pool survives into a
forked worker.  Each source's output row is written by exactly one
thread/slab, so
determinism is structural — threaded results are bit-identical to
single-threaded ones, pinned by the parity suites and
the scaling smoke.  Resolution mirrors the backend chain: explicit
``threads`` argument > session override (:func:`set_default_threads` /
:func:`use_threads`) > ``REPRO_KERNEL_THREADS`` environment variable >
1.  ``0`` (or any non-positive value) means "all cores".  The numpy
reference ignores the knob and always reports ``threads == 1``; the
resolved count rides on :attr:`KernelBackend.threads`.

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
    like — the native backend runs an MS-BFS (64 sources per uint64
    bitmask batch; Then et al., VLDB 2015) — yet stay bit-identical,
    by definition, to folding the rows ``bfs`` would have produced
    (``radius`` truncation counts truncated nodes as unreached,
    exactly like the materialised fold).
``cover_search(coverage, order_by_size, best_size, best_selection)``
    ``coverage`` a ``(num_candidates, num_elements)`` boolean/uint8
    matrix, ``order_by_size`` the candidate iteration order, and the
    incumbent to beat; returns the tightened ``(size, selection)``
    (unchanged objects when nothing smaller exists).

To add another backend (Cython, Rust over cffi, …): implement the
functions above with bit-identical semantics, raise
:class:`KernelUnavailableError` from the factory when the toolchain is
missing, and :func:`register_backend` it —
:mod:`repro.kernels.native_backend` is the worked example.  A factory
may accept one positional ``threads`` argument to build thread-aware
kernels; zero-argument factories register single-threaded backends.  A
backend whose ``bfs_reduce`` is ``None`` still works everywhere — the
reduction driver falls back to materialise-then-fold through its
``bfs``.
"""

from __future__ import annotations

import functools
import inspect
import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterator

__all__ = [
    "ENV_VAR",
    "THREADS_ENV_VAR",
    "KernelBackend",
    "KernelUnavailableError",
    "available_backends",
    "get_backend",
    "register_backend",
    "registered_backends",
    "resolve_backend",
    "resolve_threads",
    "set_default_backend",
    "set_default_threads",
    "use_backend",
    "use_threads",
]

#: Environment variable consulted when no explicit backend is given.
ENV_VAR = "REPRO_KERNEL_BACKEND"

#: Environment variable consulted when no explicit thread count is given.
THREADS_ENV_VAR = "REPRO_KERNEL_THREADS"

#: Probe order for auto-detection: the compiled kernels wherever a C
#: compiler builds them (once per host, cached), else the reference.
AUTO_ORDER = ("native", "numpy")


class KernelUnavailableError(RuntimeError):
    """Raised when a registered backend cannot be built in this environment."""


@dataclass(frozen=True)
class KernelBackend:
    """A bound set of kernels plus identification metadata.

    ``bfs_reduce`` is optional (``None``): backends without it still work
    everywhere because :func:`repro.graphs.traversal.reduce_bfs_distances`
    falls back to materialise-then-fold through ``bfs``.  ``threads`` is
    the resolved thread count the kernels were built for (always 1 for
    the numpy reference).
    """

    name: str
    bfs: Callable = field(repr=False)
    cover_search: Callable = field(repr=False)
    compiled: bool = False
    bfs_reduce: Callable | None = field(default=None, repr=False)
    threads: int = 1


def _normalize_threads(threads: int) -> int:
    """Map the ``threads`` knob to a concrete positive count (0 => all cores)."""
    if threads <= 0:
        return os.cpu_count() or 1
    return threads


def _build_numpy(threads: int = 1) -> KernelBackend:
    from repro.kernels import numpy_backend

    # The reference is single-threaded by construction; the knob is
    # accepted (so the build cache stays uniform) but always reports 1.
    return KernelBackend(
        name="numpy",
        bfs=numpy_backend.bfs,
        cover_search=numpy_backend.cover_search,
        compiled=False,
        bfs_reduce=numpy_backend.bfs_reduce,
        threads=1,
    )


def _build_native(threads: int = 1) -> KernelBackend:
    from repro.kernels import native_backend

    native_backend.load_library()  # raises KernelUnavailableError without a compiler
    threads = _normalize_threads(threads)
    return KernelBackend(
        name="native",
        bfs=native_backend.make_bfs(threads),
        cover_search=native_backend.cover_search,
        compiled=True,
        bfs_reduce=native_backend.make_bfs_reduce(threads),
        threads=threads,
    )


_FACTORIES: dict[str, Callable[..., KernelBackend]] = {
    "numpy": _build_numpy,
    "native": _build_native,
}

#: Build results keyed by ``(name, threads)``, including failures
#: (``None``) so a missing toolchain is probed once per process, not once
#: per call.
_BUILT: dict[tuple[str, int], KernelBackend | None] = {}

_default_override: str | None = None

_default_threads_override: int | None = None


@functools.cache
def _factory_takes_threads(factory: Callable[..., KernelBackend]) -> bool:
    """Whether a registered factory accepts the positional ``threads`` arg."""
    try:
        signature = inspect.signature(factory)
    except (TypeError, ValueError):  # builtins etc.: assume modern shape
        return True
    for parameter in signature.parameters.values():
        if parameter.kind in (
            inspect.Parameter.POSITIONAL_ONLY,
            inspect.Parameter.POSITIONAL_OR_KEYWORD,
            inspect.Parameter.VAR_POSITIONAL,
        ):
            return True
    return False


def register_backend(name: str, factory: Callable[..., KernelBackend]) -> None:
    """Register (or replace) a backend factory under ``name``.

    The factory may accept one positional ``threads`` argument to build
    thread-aware kernels; zero-argument factories register backends that
    are built identically for every requested thread count.
    """
    _FACTORIES[name] = factory
    for key in [key for key in _BUILT if key[0] == name]:
        del _BUILT[key]


def registered_backends() -> tuple[str, ...]:
    """All registered backend names, available in this environment or not."""
    return tuple(_FACTORIES)


def resolve_threads(threads: int | None = None) -> int:
    """Resolve the thread knob: argument > session override > env var > 1.

    Returns the *knob* value (``0`` meaning "all cores" is preserved);
    backend builders normalise it to a concrete count.
    """
    if threads is not None:
        return threads
    if _default_threads_override is not None:
        return _default_threads_override
    raw = os.environ.get(THREADS_ENV_VAR)
    if raw:
        try:
            return int(raw)
        except ValueError as exc:
            raise ValueError(
                f"{THREADS_ENV_VAR} must be an integer, got {raw!r}"
            ) from exc
    return 1


def _try_build(name: str, threads: int = 1) -> KernelBackend | None:
    factory = _FACTORIES[name]
    if not _factory_takes_threads(factory):
        threads = 1
    key = (name, threads)
    if key in _BUILT:
        return _BUILT[key]
    try:
        backend = factory(threads) if _factory_takes_threads(factory) else factory()
    except KernelUnavailableError:
        backend = None
    _BUILT[key] = backend
    return backend


def get_backend(name: str, threads: int | None = None) -> KernelBackend:
    """Build ``name`` strictly: unknown names and unavailable backends raise."""
    if name not in _FACTORIES:
        raise ValueError(
            f"unknown kernel backend {name!r}; registered: {sorted(_FACTORIES)}"
        )
    backend = _try_build(name, resolve_threads(threads))
    if backend is None:
        raise KernelUnavailableError(
            f"kernel backend {name!r} is registered but unavailable here"
        )
    return backend


def available_backends() -> tuple[str, ...]:
    """Names of registered backends that actually build in this environment."""
    return tuple(name for name in _FACTORIES if _try_build(name) is not None)


def resolve_backend(
    choice: str | KernelBackend | None = None, threads: int | None = None
) -> KernelBackend:
    """Resolve a backend: argument > session override > env var > auto.

    ``choice`` may be a :class:`KernelBackend` (returned as-is), a
    registered name, or ``None``.  Names that are registered but cannot
    be built here fall back to the numpy reference silently — optional
    acceleration must never turn into a hard dependency — while unknown
    names raise :class:`ValueError` at every resolution tier.  ``threads``
    follows its own chain (:func:`resolve_threads`) and selects the
    thread count the compiled kernels are built for.
    """
    if isinstance(choice, KernelBackend):
        return choice
    thread_knob = resolve_threads(threads)
    name = choice if choice is not None else _default_override
    if name is None:
        name = os.environ.get(ENV_VAR) or None
    if name is not None:
        if name not in _FACTORIES:
            raise ValueError(
                f"unknown kernel backend {name!r}; registered: {sorted(_FACTORIES)}"
            )
        backend = _try_build(name, thread_knob)
        if backend is not None:
            return backend
        return get_backend("numpy", thread_knob)
    for candidate in AUTO_ORDER:
        backend = _try_build(candidate, thread_knob)
        if backend is not None:
            return backend
    return get_backend("numpy", thread_knob)  # pragma: no cover - numpy always builds


def set_default_backend(name: str | None) -> None:
    """Set (or clear, with ``None``) the process-wide backend override.

    The override outranks ``REPRO_KERNEL_BACKEND`` but not explicit
    per-call arguments.  Sweep workers call this with the orchestrator's
    configured backend so shards inherit it.
    """
    global _default_override
    if name is not None and name not in _FACTORIES:
        raise ValueError(
            f"unknown kernel backend {name!r}; registered: {sorted(_FACTORIES)}"
        )
    _default_override = name


def set_default_threads(threads: int | None) -> None:
    """Set (or clear, with ``None``) the process-wide thread-count override.

    Outranks ``REPRO_KERNEL_THREADS`` but not explicit per-call
    arguments; ``0`` means "all cores".  Sweep workers call this with the
    orchestrator's configured count so shards inherit it.
    """
    global _default_threads_override
    _default_threads_override = threads


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


@contextmanager
def use_threads(threads: int | None) -> Iterator[None]:
    """Scoped :func:`set_default_threads`; ``None`` is a no-op scope."""
    global _default_threads_override
    if threads is None:
        yield
        return
    previous = _default_threads_override
    set_default_threads(threads)
    try:
        yield
    finally:
        _default_threads_override = previous
