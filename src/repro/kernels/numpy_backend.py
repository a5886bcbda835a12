"""The numpy reference kernels — the bit-identity baseline.

These are exactly the pure-Python-over-numpy hot loops the rest of the
code base was built on: the chunked multi-source frontier expansion behind
:func:`repro.graphs.traversal.batched_bfs_distances` (whose one-source
row, sliced, is the ``view`` kernel), the
branch-and-bound recursion behind
:func:`repro.solvers.set_cover.branch_and_bound_set_cover`, the
MaxNCG reply :func:`repro.solvers.set_cover.priced_max_reply` (the
incumbent's price and the loop that drives the search once per
eccentricity guess), and the SumNCG reply
:func:`repro.solvers.sum_reply.sum_reply`.  Every other
backend is measured against this module: *bit-identical outputs, faster
machinery*.  The wrappers in the graph/solver layers own all argument
validation and corner cases; the kernels here assume validated inputs
(see :mod:`repro.kernels` for the exact contracts).
"""

from __future__ import annotations

import numpy as np

from repro.kernels.common import MAX_EXPANSION_INCIDENCES, UNREACHABLE
from repro.solvers import set_cover
from repro.solvers.sum_reply import sum_reply  # the reference is the kernel

__all__ = ["bfs", "bfs_reduce", "view", "cover_search", "max_reply", "sum_reply"]


def bfs(
    indptr: np.ndarray,
    indices: np.ndarray,
    sources: np.ndarray,
    radius: int | None,
    dist: np.ndarray,
) -> np.ndarray:
    """Chunked multi-source frontier BFS (one numpy batch per level).

    All frontiers advance together: one level of every source's BFS is a
    batch of NumPy gather/scatter operations (``repeat`` to expand
    adjacency runs, a fancy-indexed visited test, ``unique`` to dedupe the
    next frontier), so the Python-level loop runs once per BFS *level*,
    not once per vertex.  Levels whose total incidence count exceeds
    :data:`~repro.kernels.common.MAX_EXPANSION_INCIDENCES` are expanded
    chunk by chunk, so the transient scratch stays bounded no matter how
    many sources run at once; the distance marks written by one chunk
    deduplicate the next chunk's rediscoveries, making the chunked
    expansion bit-identical to the monolithic one.

    When no frontier row holds more than one vertex, no two incidences of
    a level can produce the same (row, neighbour) pair — each row's
    candidates come from a single adjacency run of a simple graph — so the
    ``np.unique`` dedup sort is skipped outright (common on the sparse
    late-level frontiers of high-girth graphs; the level sets, and with
    them the output, are identical by construction).
    """
    n = len(indptr) - 1
    num_sources = sources.size
    row = np.arange(num_sources, dtype=np.int32)
    dist[row, sources] = 0
    frontier_row = row
    frontier_node = sources.astype(np.int32)
    level = 0
    while frontier_node.size:
        level += 1
        if radius is not None and level > radius:
            break
        starts = indptr[frontier_node]
        counts = indptr[frontier_node + 1] - starts
        if int(counts.sum()) == 0:
            break
        cumulative = np.cumsum(counts)
        # One frontier vertex per row ⇒ per-row candidates are the
        # neighbours of a single vertex, which a simple graph never
        # duplicates — the unique pass below would be a no-op sort.
        rows_unique = bool(np.bincount(frontier_row).max(initial=0) <= 1)
        next_rows: list[np.ndarray] = []
        next_nodes: list[np.ndarray] = []
        chunk_start = 0
        while chunk_start < frontier_node.size:
            base = int(cumulative[chunk_start - 1]) if chunk_start else 0
            chunk_stop = int(
                np.searchsorted(
                    cumulative, base + MAX_EXPANSION_INCIDENCES, side="right"
                )
            )
            # Always advance by at least one frontier vertex, even when a
            # single vertex's adjacency run exceeds the expansion cap.
            chunk_stop = max(chunk_stop, chunk_start + 1)
            sub_counts = counts[chunk_start:chunk_stop]
            total = int(sub_counts.sum())
            if total == 0:
                chunk_start = chunk_stop
                continue
            # Flat positions of every (frontier vertex, neighbour) incidence
            # in this chunk: per frontier entry an arange(start, start +
            # count), vectorised.
            expanded_row = np.repeat(frontier_row[chunk_start:chunk_stop], sub_counts)
            offsets = np.arange(total, dtype=np.int64) - np.repeat(
                np.cumsum(sub_counts) - sub_counts, sub_counts
            )
            neighbours = indices[
                np.repeat(starts[chunk_start:chunk_stop], sub_counts) + offsets
            ].astype(np.int32)
            unvisited = dist[expanded_row, neighbours] == UNREACHABLE
            chunk_start = chunk_stop
            if not unvisited.any():
                continue
            expanded_row = expanded_row[unvisited]
            neighbours = neighbours[unvisited]
            if rows_unique:
                # No duplicates possible (see above): the visited test
                # against earlier chunks' marks was the whole dedup.
                new_row = expanded_row
                new_node = neighbours
            else:
                # The same (row, neighbour) pair can be produced by several
                # frontier vertices; keep one representative per pair.
                # Across chunks the distance marks just written do the
                # deduplication.
                _, first = np.unique(
                    expanded_row.astype(np.int64) * n + neighbours, return_index=True
                )
                new_row = expanded_row[first]
                new_node = neighbours[first]
            dist[new_row, new_node] = level
            next_rows.append(new_row)
            next_nodes.append(new_node)
        if not next_rows:
            break
        if len(next_rows) == 1:
            frontier_row, frontier_node = next_rows[0], next_nodes[0]
        else:
            frontier_row = np.concatenate(next_rows)
            frontier_node = np.concatenate(next_nodes)
    return dist


def bfs_reduce(
    indptr: np.ndarray,
    indices: np.ndarray,
    sources: np.ndarray,
    radius: int | None,
    view_radius: int | None,
    ecc_out: np.ndarray,
    sum_out: np.ndarray,
    unreached_out: np.ndarray,
    view_size_out: np.ndarray,
) -> None:
    """Fused chunked frontier BFS + per-source statistics fold.

    The same level expansion as :func:`bfs`, but instead of writing an
    int32 distance row per source it folds every newly discovered level
    straight into the per-source scalars (eccentricity, finite-distance
    sum, unreached count, radius-``view_radius`` view size) with one
    ``np.bincount`` per expansion chunk.  The only per-node state is a
    boolean visited matrix — a quarter of the distance matrix's footprint
    and never exposed to the caller — so the statistics sweep stops
    materialising ``(len(sources), n)`` distance slices entirely.

    Bit-identity with materialise-then-fold is structural: the visited
    test ``~visited[row, node]`` marks exactly the entries the distance
    test ``dist[row, node] == UNREACHABLE`` would, so the discovered
    level sets — and therefore every fold — are identical.
    """
    n = len(indptr) - 1
    num_sources = sources.size
    visited = np.zeros((num_sources, n), dtype=bool)
    row = np.arange(num_sources, dtype=np.int32)
    visited[row, sources] = True
    ecc_out[:] = 0
    sum_out[:] = 0
    reached = np.ones(num_sources, dtype=np.int64)
    count_views = view_radius is not None
    # The source sits at distance 0 of itself: inside every view of
    # non-negative radius, outside a (degenerate) negative-radius one —
    # exactly the ``dist <= view_radius`` fold on materialised rows.
    view_size_out[:] = 1 if count_views and view_radius >= 0 else 0
    frontier_row = row
    frontier_node = sources.astype(np.int32)
    level = 0
    while frontier_node.size:
        level += 1
        if radius is not None and level > radius:
            break
        starts = indptr[frontier_node]
        counts = indptr[frontier_node + 1] - starts
        if int(counts.sum()) == 0:
            break
        cumulative = np.cumsum(counts)
        rows_unique = bool(np.bincount(frontier_row).max(initial=0) <= 1)
        in_view = count_views and level <= view_radius
        next_rows: list[np.ndarray] = []
        next_nodes: list[np.ndarray] = []
        chunk_start = 0
        while chunk_start < frontier_node.size:
            base = int(cumulative[chunk_start - 1]) if chunk_start else 0
            chunk_stop = int(
                np.searchsorted(
                    cumulative, base + MAX_EXPANSION_INCIDENCES, side="right"
                )
            )
            chunk_stop = max(chunk_stop, chunk_start + 1)
            sub_counts = counts[chunk_start:chunk_stop]
            total = int(sub_counts.sum())
            if total == 0:
                chunk_start = chunk_stop
                continue
            expanded_row = np.repeat(frontier_row[chunk_start:chunk_stop], sub_counts)
            offsets = np.arange(total, dtype=np.int64) - np.repeat(
                np.cumsum(sub_counts) - sub_counts, sub_counts
            )
            neighbours = indices[
                np.repeat(starts[chunk_start:chunk_stop], sub_counts) + offsets
            ].astype(np.int32)
            unvisited = ~visited[expanded_row, neighbours]
            chunk_start = chunk_stop
            if not unvisited.any():
                continue
            expanded_row = expanded_row[unvisited]
            neighbours = neighbours[unvisited]
            if rows_unique:
                new_row = expanded_row
                new_node = neighbours
            else:
                _, first = np.unique(
                    expanded_row.astype(np.int64) * n + neighbours, return_index=True
                )
                new_row = expanded_row[first]
                new_node = neighbours[first]
            visited[new_row, new_node] = True
            # The fused fold: this chunk's discoveries all sit at ``level``.
            discovered = np.bincount(new_row, minlength=num_sources).astype(np.int64)
            reached += discovered
            sum_out += discovered * level
            ecc_out[discovered > 0] = level
            if in_view:
                view_size_out += discovered
            next_rows.append(new_row)
            next_nodes.append(new_node)
        if not next_rows:
            break
        if len(next_rows) == 1:
            frontier_row, frontier_node = next_rows[0], next_nodes[0]
        else:
            frontier_row = np.concatenate(next_rows)
            frontier_node = np.concatenate(next_nodes)
    unreached_out[:] = n - reached


def view(
    indptr: np.ndarray,
    indices: np.ndarray,
    player: int,
    radius: int | None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """One player's view: the :func:`bfs` row of ``player``, then slicing.

    The visible nodes other than ``player`` are the reached columns (every
    column when ``radius`` is None), already in ascending order; the H − u
    sub-CSR keeps, of each visible node's row, the visible neighbours
    other than ``player``, renumbered to their positions.  Renumbering is
    monotone, so rows sorted in the input stay sorted.
    """
    n = len(indptr) - 1
    row = bfs(
        indptr,
        indices,
        np.array([player], dtype=np.int64),
        radius,
        np.full((1, n), UNREACHABLE, dtype=np.int32),
    )[0].astype(np.int64)
    visible = np.arange(n) if radius is None else np.flatnonzero(row != UNREACHABLE)
    nodes = visible[visible != player]
    position = np.full(n, -1, dtype=np.int64)
    position[nodes] = np.arange(nodes.size)
    starts = indptr[nodes]
    counts = indptr[nodes + 1] - starts
    offsets = np.arange(int(counts.sum()), dtype=np.int64) - np.repeat(
        np.cumsum(counts) - counts, counts
    )
    local = position[indices[np.repeat(starts, counts) + offsets]]
    keep = local >= 0
    sub_indptr = np.zeros(nodes.size + 1, dtype=np.int64)
    owners = np.repeat(np.arange(nodes.size), counts)[keep]
    np.cumsum(np.bincount(owners, minlength=nodes.size), out=sub_indptr[1:])
    return nodes.astype(np.int64), row[nodes], sub_indptr, local[keep]


def cover_search(
    coverage: np.ndarray,
    order_by_size: np.ndarray,
    best_size: int,
    best_selection: list[int] | None,
) -> tuple[int, list[int] | None]:
    """The branch-and-bound set-cover recursion over the residual instance.

    Branches on the uncovered element with the fewest covering candidates
    (the most constrained element), prunes with the incumbent handed in by
    the caller (greedy / warm-start seeded) and the simple lower bound
    ``ceil(#uncovered / max coverage size)``, and tries the candidates
    covering the branching element in ``order_by_size`` order.  Returns the
    tightened ``(best_size, best_selection)`` incumbent — unchanged when
    the search proves nothing smaller exists.
    """

    def recurse(remaining: np.ndarray, chosen: list[int]) -> None:
        nonlocal best_size, best_selection
        num_remaining = int(remaining.sum())
        if num_remaining == 0:
            if len(chosen) < best_size:
                best_size = len(chosen)
                best_selection = list(chosen)
            return
        if len(chosen) + 1 > best_size:
            return
        max_gain = int((coverage & remaining).sum(axis=1).max(initial=0))
        if max_gain == 0:
            return
        lower = len(chosen) + int(np.ceil(num_remaining / max_gain))
        if lower >= best_size + 1:
            return
        # Most-constrained element: fewest candidates cover it.
        candidate_counts = coverage[:, remaining].sum(axis=0)
        target_positions = np.flatnonzero(remaining)
        local_target = int(np.argmin(candidate_counts))
        element = int(target_positions[local_target])
        covering = [int(c) for c in order_by_size if coverage[c, element]]
        for candidate in covering:
            if candidate in chosen:
                continue
            new_remaining = remaining & ~coverage[candidate]
            chosen.append(candidate)
            recurse(new_remaining, chosen)
            chosen.pop()

    recurse(np.ones(coverage.shape[1], dtype=bool), [])
    return best_size, best_selection


def max_reply(
    dist: np.ndarray,
    forced,
    current,
    alpha: float,
    beta: float,
    warm_start: bool,
    greedy: bool,
) -> tuple[float, float, tuple[int, ...] | None]:
    """One MaxNCG reply, the Python composed on this backend
    (:func:`repro.solvers.set_cover.priced_max_reply`)."""
    return set_cover.priced_max_reply(
        dist, forced, current, alpha, beta, warm_start,
        method="greedy" if greedy else "branch_and_bound", backend="numpy",
    )
