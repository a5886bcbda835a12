"""Breadth-first traversals and distance computations.

All game-theoretic quantities in the paper (eccentricity, status, views,
best responses) reduce to unweighted shortest-path distances, so BFS is the
single hot primitive of the whole code base.  Two implementations are
provided:

* a plain ``collections.deque`` BFS used for single sources and bounded
  explorations (lazy view refreshes), and
* a batched multi-source frontier BFS over a CSR adjacency layout
  (:func:`batched_bfs_distances`), which keeps the inner loop in NumPy and
  backs both :func:`distance_matrix` (all sources) and the incremental
  engine's bulk view extraction (many sources, bounded radius), and
* a blocked/streaming driver on top of it
  (:func:`iter_blocked_bfs_distances` / :func:`accumulate_bfs_distances`)
  for workloads whose source set is too large to materialise a dense
  ``(len(sources), n)`` distance matrix at once.

Memory model of the blocked driver
----------------------------------
``batched_bfs_distances`` over ``s`` sources allocates the full
``(s, n)`` int32 distance matrix up front — ~400 MB for an all-pairs sweep
at ``n = 10^4``, quadratic beyond that.  The blocked driver instead cuts the
source set into blocks of at most ``block_size`` sources and runs one batched
BFS per block, so peak memory is ``O(block_size * n)`` int32 for the live
distance rows plus ``O(frontier incidences)`` transient scratch inside the
kernel, *independent of the total number of sources*.  Every consumer that
only needs per-source reductions (eccentricity, usage sums, view sizes,
diameter — see :func:`repro.core.metrics.compute_profile_metrics`) should go
through the accumulator API instead of :func:`distance_matrix`.

The ``block_size`` knob trades Python-level loop overhead (one kernel call
per block) against peak memory; :data:`DEFAULT_BLOCK_SIZE` (1024 source
rows, i.e. ~40 MB of live rows at ``n = 10^4``) is a good default for
anything from laptops to CI runners.  Results are bit-identical for every
block size because each source's BFS is independent of its batch-mates.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable, Iterator, Sequence
from typing import Protocol

import numpy as np

from repro.graphs.graph import Graph, Node
from repro.kernels import KernelBackend, resolve_backend
from repro.kernels.common import MAX_EXPANSION_INCIDENCES, UNREACHABLE
from repro.obs import get_telemetry
from repro.obs.metrics import CounterFamily, default_registry

__all__ = [
    "bfs_distances",
    "bfs_distances_within",
    "ball",
    "connected_components",
    "is_connected",
    "shortest_path",
    "all_pairs_distances",
    "batched_bfs_distances",
    "iter_blocked_bfs_distances",
    "accumulate_bfs_distances",
    "reduce_bfs_distances",
    "DistanceBlockConsumer",
    "distance_matrix",
    "UNREACHABLE",
    "DEFAULT_BLOCK_SIZE",
    "MAX_EXPANSION_INCIDENCES",
]

# UNREACHABLE and MAX_EXPANSION_INCIDENCES moved to repro.kernels.common so
# backend modules can share them without importing the graph layer; they are
# re-exported here for backwards compatibility.

#: Default number of source rows processed per blocked-BFS kernel call.
#: Peak live memory of a blocked sweep is ``DEFAULT_BLOCK_SIZE * n`` int32
#: entries (~40 MB at n = 10^4) regardless of the total source count.
DEFAULT_BLOCK_SIZE: int = 1024

# Kernel-call metrics live on the process default registry (the dispatch
# wrappers are module functions with no instance to hang a handle off);
# lazily bound so importing this module never races registry setup.
_KERNEL_CALLS: CounterFamily | None = None
_KERNEL_SOURCES: CounterFamily | None = None


def _kernel_metrics() -> tuple[CounterFamily, CounterFamily]:
    global _KERNEL_CALLS, _KERNEL_SOURCES
    if _KERNEL_CALLS is None:
        registry = default_registry()
        _KERNEL_CALLS = registry.counter(
            "repro_kernel_calls_total",
            help="Kernel dispatches through the traversal wrappers",
            labelnames=("kernel", "backend"),
        )
        _KERNEL_SOURCES = registry.counter(
            "repro_kernel_sources_total",
            help="BFS source rows (frontier batch width) fed to kernels",
            labelnames=("kernel", "backend"),
        )
    return _KERNEL_CALLS, _KERNEL_SOURCES


def bfs_distances(graph: Graph, source: Node) -> dict[Node, int]:
    """Return the distance from ``source`` to every reachable node.

    Unreachable nodes are absent from the result.
    """
    if not graph.has_node(source):
        raise KeyError(f"source {source!r} not in graph")
    dist: dict[Node, int] = {source: 0}
    queue: deque[Node] = deque([source])
    adj = graph.adjacency
    while queue:
        node = queue.popleft()
        d = dist[node] + 1
        for neighbour in adj[node]:
            if neighbour not in dist:
                dist[neighbour] = d
                queue.append(neighbour)
    return dist


def bfs_distances_within(graph: Graph, source: Node, radius: int) -> dict[Node, int]:
    """Return distances from ``source`` truncated at ``radius``.

    Only nodes at distance at most ``radius`` appear in the result; this is
    the primitive used to extract the k-neighbourhood views of the players.
    """
    if radius < 0:
        raise ValueError("radius must be non-negative")
    if not graph.has_node(source):
        raise KeyError(f"source {source!r} not in graph")
    dist: dict[Node, int] = {source: 0}
    queue: deque[Node] = deque([source])
    adj = graph.adjacency
    while queue:
        node = queue.popleft()
        d = dist[node]
        if d == radius:
            continue
        for neighbour in adj[node]:
            if neighbour not in dist:
                dist[neighbour] = d + 1
                queue.append(neighbour)
    return dist


def ball(graph: Graph, center: Node, radius: int) -> set[Node]:
    """Return the closed ball ``B_radius(center)`` (the paper's β_{G,h}(v))."""
    return set(bfs_distances_within(graph, center, radius))


def shortest_path(graph: Graph, source: Node, target: Node) -> list[Node] | None:
    """Return one shortest path from ``source`` to ``target`` or ``None``."""
    if not graph.has_node(source) or not graph.has_node(target):
        raise KeyError("source or target not in graph")
    if source == target:
        return [source]
    parent: dict[Node, Node] = {source: source}
    queue: deque[Node] = deque([source])
    adj = graph.adjacency
    while queue:
        node = queue.popleft()
        for neighbour in adj[node]:
            if neighbour not in parent:
                parent[neighbour] = node
                if neighbour == target:
                    path = [target]
                    while path[-1] != source:
                        path.append(parent[path[-1]])
                    path.reverse()
                    return path
                queue.append(neighbour)
    return None


def connected_components(graph: Graph) -> list[set[Node]]:
    """Return the connected components as a list of node sets."""
    remaining = set(graph.nodes())
    components: list[set[Node]] = []
    while remaining:
        source = next(iter(remaining))
        component = set(bfs_distances(graph, source))
        components.append(component)
        remaining -= component
    return components


def is_connected(graph: Graph) -> bool:
    """Return ``True`` iff the graph is connected (empty graphs are not)."""
    n = graph.number_of_nodes()
    if n == 0:
        return False
    source = next(iter(graph))
    return len(bfs_distances(graph, source)) == n


def all_pairs_distances(graph: Graph) -> dict[Node, dict[Node, int]]:
    """Return a dict-of-dicts distance table (reachable pairs only)."""
    return {node: bfs_distances(graph, node) for node in graph}


def batched_bfs_distances(
    indptr: np.ndarray,
    indices: np.ndarray,
    sources: Sequence[int] | np.ndarray,
    radius: int | None = None,
    backend: str | KernelBackend | None = None,
) -> np.ndarray:
    """Multi-source BFS over a CSR adjacency layout, kernel-backed.

    Parameters
    ----------
    indptr, indices:
        CSR arrays as produced by :meth:`Graph.to_csr_arrays`:
        ``indices[indptr[i]:indptr[i + 1]]`` are the neighbours of node ``i``.
    sources:
        Node indices to run BFS from (one row of output per source).
    radius:
        Optional truncation depth; nodes farther than ``radius`` from a
        source keep the :data:`UNREACHABLE` marker in that source's row.
    backend:
        Kernel backend selection — a name, an already-resolved
        :class:`~repro.kernels.KernelBackend`, or ``None`` to follow the
        ``REPRO_KERNEL_BACKEND``/auto-detect chain (see
        :func:`repro.kernels.resolve_backend`).

    Returns
    -------
    ``(len(sources), n)`` int32 matrix of distances, :data:`UNREACHABLE`
    for unreached pairs.

    Notes
    -----
    This wrapper owns validation, allocation and the empty corner cases;
    the per-level expansion is delegated to the selected kernel backend
    (:mod:`repro.kernels`).  Every backend produces bit-identical
    matrices — the numpy reference advances all frontiers together with
    one batch of gather/scatter operations per BFS level (chunked at
    :data:`MAX_EXPANSION_INCIDENCES` incidences to bound scratch); the
    compiled backends run a queue BFS per source.  BFS distances are
    unique, so the traversal strategy cannot show in the output.
    """
    n = len(indptr) - 1
    source_array = np.asarray(sources, dtype=np.int64)
    num_sources = source_array.size
    dist = np.full((num_sources, n), UNREACHABLE, dtype=np.int32)
    if num_sources == 0 or n == 0:
        return dist
    if source_array.size and (source_array.min() < 0 or source_array.max() >= n):
        raise IndexError("source index out of range")
    kernel = resolve_backend(backend)
    calls, srcs = _kernel_metrics()
    calls.labels(kernel="bfs", backend=kernel.name).inc()
    srcs.labels(kernel="bfs", backend=kernel.name).inc(num_sources)
    tracer = get_telemetry().tracer
    if tracer.enabled:
        with tracer.span(
            "kernels.bfs",
            backend=kernel.name,
            sources=int(num_sources),
            n=int(n),
            radius=-1 if radius is None else int(radius),
        ):
            return kernel.bfs(indptr, indices, source_array, radius, dist)
    return kernel.bfs(indptr, indices, source_array, radius, dist)


class DistanceBlockConsumer(Protocol):
    """Accumulator protocol fed by :func:`accumulate_bfs_distances`.

    ``process_block(start, sources, dist_block)`` receives the rows for
    ``sources[start:start + dist_block.shape[0]]`` of the conceptual
    ``(len(sources), n)`` distance matrix: ``dist_block[i, j]`` is the
    distance from source ``start + i`` (in sweep order) to node ``j``, or
    :data:`UNREACHABLE`.  Implementations fold each block into running
    statistics (max/sum/eccentricity/counts) and must not retain a
    reference to ``dist_block`` — the driver may reuse the buffer.
    """

    def process_block(
        self, start: int, sources: np.ndarray, dist_block: np.ndarray
    ) -> None: ...


def iter_blocked_bfs_distances(
    indptr: np.ndarray,
    indices: np.ndarray,
    sources: Sequence[int] | np.ndarray,
    radius: int | None = None,
    block_size: int | None = None,
    backend: str | KernelBackend | None = None,
) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """Stream :func:`batched_bfs_distances` results block by block.

    Yields ``(start, source_block, dist_block)`` triples where
    ``source_block = sources[start:start + dist_block.shape[0]]`` and
    ``dist_block`` is the corresponding ``(block, n)`` int32 slice of the
    conceptual full distance matrix.  Concatenating the blocks in order is
    bit-identical to one unblocked :func:`batched_bfs_distances` call: each
    source's BFS never interacts with its batch-mates, so blocking changes
    memory usage only (see the module docstring for the memory model).

    ``block_size`` caps the number of source rows live at once and defaults
    to :data:`DEFAULT_BLOCK_SIZE`; it must be positive.  An empty source set
    yields nothing.  Argument validation happens at call time (not on first
    ``next``), so a bad block size or out-of-range source raises at the
    call site.
    """
    if block_size is None:
        block_size = DEFAULT_BLOCK_SIZE
    if block_size <= 0:
        raise ValueError(f"block_size must be positive, got {block_size}")
    source_array = np.asarray(sources, dtype=np.int64)
    n = len(indptr) - 1
    if source_array.size and (source_array.min() < 0 or source_array.max() >= n):
        raise IndexError("source index out of range")
    # Resolve once at call time so every block runs on the same backend even
    # if the process-wide default changes mid-sweep.
    kernel = resolve_backend(backend)

    def blocks() -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
        for start in range(0, source_array.size, block_size):
            block = source_array[start : start + block_size]
            yield start, block, batched_bfs_distances(
                indptr, indices, block, radius=radius, backend=kernel
            )

    return blocks()


def accumulate_bfs_distances(
    indptr: np.ndarray,
    indices: np.ndarray,
    sources: Sequence[int] | np.ndarray,
    consumer: DistanceBlockConsumer,
    radius: int | None = None,
    block_size: int | None = None,
    backend: str | KernelBackend | None = None,
) -> DistanceBlockConsumer:
    """Drive a blocked BFS sweep through ``consumer`` and return it.

    The streaming counterpart of "compute the full distance matrix, then
    reduce it": ``consumer.process_block`` sees every row of the conceptual
    matrix exactly once, in source order, without more than ``block_size``
    rows ever being materialised (the per-profile metric sweep and the
    large-n CI smoke run sit on this).
    """
    for start, block_sources, dist_block in iter_blocked_bfs_distances(
        indptr, indices, sources, radius=radius, block_size=block_size, backend=backend
    ):
        consumer.process_block(start, block_sources, dist_block)
    return consumer


def reduce_bfs_distances(
    indptr: np.ndarray,
    indices: np.ndarray,
    sources: Sequence[int] | np.ndarray,
    radius: int | None = None,
    view_radius: int | None = None,
    block_size: int | None = None,
    backend: str | KernelBackend | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Fused per-source BFS statistics — no distance matrix materialised.

    Runs the ``bfs_reduce`` kernel blockwise over ``sources`` and returns
    four int64 vectors of ``len(sources)``:

    ``(ecc, sums, unreached, view_sizes)``
        Per source: the largest finite distance (eccentricity, 0 when
        nothing else is reached), the sum of finite distances, the number
        of unreached nodes, and — when ``view_radius`` is not ``None`` —
        the number of nodes at distance at most ``view_radius`` (0 vectors
        otherwise).  ``radius`` truncation counts truncated nodes as
        unreached, exactly like folding truncated distance rows.

    Bit-identical, for every backend and block size, to folding the rows
    of :func:`batched_bfs_distances` — the hypothesis suite in
    ``tests/graphs/test_kernel_backends.py`` pins this.  Peak memory is
    ``O(n)`` scratch (compiled) or one boolean ``(block, n)`` visited
    matrix (numpy reference) — never an int32 distance block.
    """
    if block_size is None:
        block_size = DEFAULT_BLOCK_SIZE
    if block_size <= 0:
        raise ValueError(f"block_size must be positive, got {block_size}")
    source_array = np.asarray(sources, dtype=np.int64)
    n = len(indptr) - 1
    num_sources = source_array.size
    if num_sources and (source_array.min() < 0 or source_array.max() >= n):
        raise IndexError("source index out of range")
    ecc = np.zeros(num_sources, dtype=np.int64)
    sums = np.zeros(num_sources, dtype=np.int64)
    unreached = np.zeros(num_sources, dtype=np.int64)
    view_sizes = np.zeros(num_sources, dtype=np.int64)
    if num_sources == 0 or n == 0:
        return ecc, sums, unreached, view_sizes
    kernel = resolve_backend(backend)
    calls, srcs = _kernel_metrics()
    tracer = get_telemetry().tracer
    sweep_span = (
        tracer.span(
            "kernels.bfs_reduce",
            backend=kernel.name,
            sources=int(num_sources),
            n=int(n),
        )
        if tracer.enabled
        else None
    )
    for start in range(0, num_sources, block_size):
        stop = min(start + block_size, num_sources)
        calls.labels(kernel="bfs_reduce", backend=kernel.name).inc()
        srcs.labels(kernel="bfs_reduce", backend=kernel.name).inc(stop - start)
        # Sliced views of the output vectors are contiguous, so the
        # kernel fills the final arrays in place, block by block.
        kernel.bfs_reduce(
            indptr,
            indices,
            source_array[start:stop],
            radius,
            view_radius,
            ecc[start:stop],
            sums[start:stop],
            unreached[start:stop],
            view_sizes[start:stop],
        )
    if sweep_span is not None:
        sweep_span.finish()
    return ecc, sums, unreached, view_sizes


def _csr_for_order(graph: Graph, order: list[Node]) -> tuple[np.ndarray, np.ndarray]:
    """CSR arrays of the subgraph induced by ``order``, in that node order."""
    index = {node: i for i, node in enumerate(order)}
    indptr = np.zeros(len(order) + 1, dtype=np.int64)
    neighbour_lists: list[list[int]] = []
    adjacency = graph.adjacency
    for i, node in enumerate(order):
        local = [index[v] for v in adjacency[node] if v in index]
        neighbour_lists.append(local)
        indptr[i + 1] = indptr[i] + len(local)
    indices = np.fromiter(
        (j for local in neighbour_lists for j in local),
        dtype=np.int64,
        count=int(indptr[-1]),
    )
    return indptr, indices


def distance_matrix(
    graph: Graph,
    nodes: Iterable[Node] | None = None,
    backend: str | KernelBackend | None = None,
) -> tuple[np.ndarray, list[Node]]:
    """Dense all-pairs distance matrix via the batched CSR BFS kernel.

    Parameters
    ----------
    graph:
        The graph to analyse.
    nodes:
        Optional explicit node ordering; defaults to ``graph.nodes()``.
        When given, paths are restricted to the induced subgraph.
    backend:
        Kernel backend selection, forwarded to
        :func:`batched_bfs_distances`.

    Returns
    -------
    (matrix, order):
        ``matrix[i, j]`` is the distance between ``order[i]`` and
        ``order[j]``, or :data:`UNREACHABLE` if no path exists.
    """
    if nodes is None:
        indptr, indices, order = graph.to_csr_arrays()
    else:
        order = list(nodes)
        indptr, indices = _csr_for_order(graph, order)
    n = len(order)
    if n == 0:
        return np.full((0, 0), UNREACHABLE, dtype=np.int32), order
    dist = batched_bfs_distances(
        indptr, indices, np.arange(n, dtype=np.int64), backend=backend
    )
    return dist, order
