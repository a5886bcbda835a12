"""Breadth-first traversals and distance computations.

All game-theoretic quantities in the paper (eccentricity, status, views,
best responses) reduce to unweighted shortest-path distances, so BFS is the
single hot primitive of the whole code base.  It comes in three forms:

* a plain ``collections.deque`` BFS used for single sources and bounded
  explorations over the dict graph (reference views, discovery models,
  the engine's dirty regions);
* a batched multi-source frontier BFS over a CSR adjacency layout
  (:func:`batched_bfs_distances`), which keeps the inner loop in a kernel
  and backs :func:`distance_matrix` (all sources) and the engine's cover
  contexts (the engine settles the views themselves with the ``view``
  kernel, see :mod:`repro.engine.views`), and
* a fused sweep (:func:`reduce_bfs_distances`) that folds each source's
  distances into per-source reductions inside the kernel, never
  materialising a distance row at all.

Memory model of the fused sweep
-------------------------------
``batched_bfs_distances`` over ``s`` sources allocates the full
``(s, n)`` int32 distance matrix up front — ~400 MB for an all-pairs sweep
at ``n = 10^4``, quadratic beyond that.  Every consumer that only needs
per-source reductions (eccentricity, usage sums, view sizes, diameter — see
:func:`repro.core.metrics.compute_profile_metrics`) goes through
:func:`reduce_bfs_distances` instead, which cuts the source set into blocks
of at most ``block_size`` sources and keeps ``O(n)`` scratch (compiled) or
one boolean ``(block_size, n)`` visited matrix (numpy reference) live.

The ``block_size`` knob trades Python-level loop overhead (one kernel call
per block) against peak memory; :data:`DEFAULT_BLOCK_SIZE` (1024 source
rows) is a good default for anything from laptops to CI runners.  Results
are bit-identical for every block size because each source's BFS is
independent of its batch-mates.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable, Sequence

import numpy as np

from repro.graphs.graph import Graph, Node
from repro.kernels import KernelBackend, resolve_backend
from repro.kernels.common import UNREACHABLE
from repro.obs import get_telemetry
from repro.obs.metrics import Counter, default_registry

__all__ = [
    "bfs_distances",
    "bfs_distances_within",
    "connected_components",
    "is_connected",
    "shortest_path",
    "all_pairs_distances",
    "batched_bfs_distances",
    "reduce_bfs_distances",
    "distance_matrix",
    "DEFAULT_BLOCK_SIZE",
]

#: Default number of source rows processed per fused-sweep kernel call.
DEFAULT_BLOCK_SIZE: int = 1024

# Kernel-call metrics live on the process default registry (the dispatch
# wrappers are module functions with no instance to hang a handle off);
# each (kernel, backend) pair's two series are bound on first use, so a
# dispatch pays two increments and no label lookup.
_KERNEL_SERIES: dict[tuple[str, str], tuple[Counter, Counter]] = {}


def _kernel_metrics(kernel: str, backend: str) -> tuple[Counter, Counter]:
    """The ``(calls, sources)`` series of one kernel on one backend."""
    series = _KERNEL_SERIES.get((kernel, backend))
    if series is None:
        registry = default_registry()
        calls = registry.counter(
            "repro_kernel_calls_total",
            help="Kernel dispatches through the traversal wrappers",
            labelnames=("kernel", "backend"),
        )
        sources = registry.counter(
            "repro_kernel_sources_total",
            help="BFS source rows (frontier batch width) fed to kernels",
            labelnames=("kernel", "backend"),
        )
        series = _KERNEL_SERIES[(kernel, backend)] = (
            calls.labels(kernel=kernel, backend=backend),
            sources.labels(kernel=kernel, backend=backend),
        )
    return series


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
    sources: Sequence[int] | np.ndarray | None,
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
        Node indices to run BFS from (one row of output per source), or
        ``None`` for every node in index order (all pairs).
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
    :data:`~repro.kernels.common.MAX_EXPANSION_INCIDENCES` incidences to
    bound scratch); the compiled backends run a queue BFS per source.  BFS distances are
    unique, so the traversal strategy cannot show in the output.
    """
    n = len(indptr) - 1
    if sources is None:
        source_array = np.arange(n, dtype=np.int64)
    else:
        source_array = np.asarray(sources, dtype=np.int64)
        if source_array.size and (source_array.min() < 0 or source_array.max() >= n):
            raise IndexError("source index out of range")
    num_sources = source_array.size
    dist = np.empty((num_sources, n), dtype=np.int32)
    dist.fill(UNREACHABLE)
    if num_sources == 0 or n == 0:
        return dist
    kernel = resolve_backend(backend)
    calls, srcs = _kernel_metrics("bfs", kernel.name)
    calls.inc()
    srcs.inc(num_sources)
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
    calls, srcs = _kernel_metrics("bfs_reduce", kernel.name)
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
        calls.inc()
        srcs.inc(stop - start)
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
    return batched_bfs_distances(indptr, indices, None, backend=backend), order
