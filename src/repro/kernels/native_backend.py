"""Native C kernel backend — the auto-detected default.

The C sources below are compiled once per host with the platform's C
compiler (``cc``/``gcc``, ``-O2 -shared -fPIC -ffp-contract=off``; ``$CC``
overrides) into a shared object cached under ``~/.cache/repro-kernels/``
(override with ``REPRO_KERNEL_CACHE``), keyed by a hash of the source text
and flags so edits invalidate stale builds, and loaded through
:mod:`ctypes` — no build-time dependency, no extension-module packaging,
works from a plain source checkout.  A cold first resolve (the compile)
costs about 0.4 s; every later process on the host only loads the cached
object.  Processes racing the first build each compile in a private
temporary directory and publish by atomic rename, so the loser's rename
is a cache hit.
Environments without a working compiler, or whose cache directory cannot
be created or written, report the backend as unavailable and the
registry falls back to numpy (see :func:`repro.kernels.resolve_backend`).

The ``bfs`` and ``cover_search`` kernels implement *exactly* the
algorithms of :mod:`repro.kernels.numpy_backend` — same traversal order,
same branching element, same candidate order, same incumbent updates — so
distances, selected covers and every downstream tie-break are
bit-identical to the numpy reference (pinned by
``tests/graphs/test_kernel_backends.py`` and
``tests/solvers/test_set_cover.py``).  ``max_reply`` runs a whole MaxNCG
best response in one call: the eccentricity-guess loop of
:func:`repro.solvers.set_cover.max_reply` with every branch-and-bound
step in C, the search reusing ``cover_search``'s recursion (pinned by
``tests/core/test_max_reply.py``).  The one step it leaves to numpy is
the search's candidate order, ``np.argsort`` of the negated cover sizes:
numpy's default sort orders equal sizes its own way (by SIMD sorting
networks on CPUs that have them), which C cannot reproduce, so the loop
calls back into its wrapper for that order once per search it runs —
most guesses end at the greedy incumbent or the root bound and never
search.  ``sum_reply`` runs one SumNCG reply in one call — the pruned
class enumeration or one first-improvement climb of
:func:`repro.solvers.sum_reply.sum_reply`, every float expression in
the reference's order (pinned by ``tests/core/test_sum_reply.py``); the
enumeration's column minima are prefix minima over each combination,
recomputed from the first member that changed.  The fused
``bfs_reduce`` kernel is free to traverse in a different *order* — it is an MS-BFS, advancing 64
sources per uint64-bitmask batch through one level-synchronous sweep,
the batches taken in a locality order of the sources and each level
expanding only its listed frontier nodes —
because its outputs are order-independent aggregates of the unique BFS
distance function, each written to its source's own position; the same
parity suites pin its bit-identity.  ``view``
settles one player's view in one call: a queue BFS from her, then a scan
collecting the visible nodes in index order and the rows of the H − u
sub-CSR; its outputs are unique given sorted input rows, so they match the
numpy reference by construction.

The kernels run on the calling thread and start no threads, so the
fork-based worker pools of the sweep service stay safe to start after a
kernel has run.

This module doubles as the template for binding further compiled
backends (Cython, Rust over cffi): implement ``bfs`` / ``bfs_reduce`` /
``view`` / ``cover_search`` / ``max_reply`` / ``sum_reply`` with the
contracts documented in :mod:`repro.kernels`, raise
:class:`~repro.kernels.KernelUnavailableError` from the factory when the
toolchain is missing, and register the factory.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess
import tempfile
from pathlib import Path

import numpy as np

__all__ = [
    "load_library",
    "bfs",
    "bfs_reduce",
    "view",
    "cover_search",
    "max_reply",
    "sum_reply",
]

_SOURCE = r"""
#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* Per-source queue BFS over a CSR adjacency layout.
 *
 * dist is a (num_sources, n) row-major int32 matrix pre-filled with the
 * unreachable sentinel; queue is an n-entry int32 scratch buffer.
 * radius < 0 means unbounded.  BFS distances are unique, so the matrix
 * is bit-identical to the numpy level expansion.
 */
void repro_bfs_batch(const int64_t *indptr, const int64_t *indices,
                     int64_t n, const int64_t *sources, int64_t num_sources,
                     int64_t radius, int32_t unreachable,
                     int32_t *dist, int32_t *queue) {
    for (int64_t s = 0; s < num_sources; ++s) {
        int32_t *row = dist + s * n;
        int64_t head = 0, tail = 0;
        int64_t src = sources[s];
        row[src] = 0;
        queue[tail++] = (int32_t)src;
        while (head < tail) {
            int32_t node = queue[head++];
            int32_t d = row[node];
            if (radius >= 0 && (int64_t)d >= radius)
                continue;
            int64_t estop = indptr[node + 1];
            for (int64_t e = indptr[node]; e < estop; ++e) {
                int32_t nb = (int32_t)indices[e];
                if (row[nb] == unreachable) {
                    row[nb] = d + 1;
                    queue[tail++] = nb;
                }
            }
        }
    }
}

/* A level whose expansion work (the summed degrees of its frontier) times
 * this factor stays below n takes its fresh bits from the nodes it touched;
 * any other level scans all n nodes.  Best of 8 interleaved all-source
 * sweeps on one core of a 2-core x86-64 host, at factors 1 / 2 / 4 / 8
 * (ms): random tree(1536) 14.4 / 19.0 / 23.1 / 24.2, tree(5000)
 * 191 / 229 / 351 / 412, G(3000, 0.002) 26.3 / 26.9 / 26.8 / 27.2,
 * G(2000, 0.01) 11.2 / 10.7 / 10.8 / 10.8, BA(5000, m=2) with 1024
 * sources 10.9 / 11.2 / 11.8 / 11.9.  Taking the touched nodes on every
 * level instead saves the trees about 10% and costs the G(n, p) and BA
 * graphs 15-25%; scanning all n on every level doubles the trees' time.
 */
#define REDUCE_SPARSE_FACTOR 1

/* Collect node v's fresh bits after a level's expansion: clear its next
 * word, make the fresh bits its frontier word, mark them visited, count
 * them per source and list v in the new frontier.  Returns the new
 * frontier length. */
static inline int64_t repro_settle(int64_t v, uint64_t *cur, uint64_t *next,
                                   uint64_t *visited, int32_t *frontier,
                                   int64_t width, int64_t *cnt) {
    uint64_t fresh = next[v] & ~visited[v];
    next[v] = 0;
    if (!fresh)
        return width;
    cur[v] = fresh;
    visited[v] |= fresh;
    frontier[width++] = (int32_t)v;
    do {
        ++cnt[__builtin_ctzll(fresh)];
        fresh &= fresh - 1;
    } while (fresh);
    return width;
}

/* Fused multi-source BFS + statistics fold: eccentricity,
 * finite-distance sum, unreached count and radius-view_radius view
 * size, emitted straight from the traversal — no distance matrix.
 *
 * The traversal is an MS-BFS (Then et al., "The More the Merrier",
 * VLDB 2015): 64 sources advance together through one level-synchronous
 * sweep, their frontiers packed into one uint64 bitmask per node, so a
 * level costs one word-OR per frontier edge for the whole batch instead
 * of one queue traversal per source.  Per-source statistics fall out of
 * the newly set bits at each level.  Three choices keep a batch's
 * frontiers shared and its levels cheap on sparse, high-diameter graphs:
 *
 *   - Locality order.  One BFS over the whole graph (roots in index
 *     order, every component) ranks the nodes; a stable counting sort
 *     orders the source positions by their node's rank, and batches of
 *     64 are taken in that order.  Sources that sit close together share
 *     most of their frontier nodes, so a level touches few distinct
 *     words.  A single batch needs no order and skips this step.
 *   - Frontier lists.  A level expands only the nodes whose frontier
 *     word is non-zero, listed by the level before.
 *   - The fresh-bit pass per level.  When the expansion work is small
 *     next to n (REDUCE_SPARSE_FACTOR), only the touched nodes are
 *     scanned for fresh bits; otherwise all n are, with no list upkeep.
 *
 * The traversal *order* differs from the queue BFS, and so does the
 * order of the batches, but every output is an order-independent
 * aggregate of one source's (unique) BFS distance function and is
 * written back to that source's own position, so the outputs stay
 * bit-identical to the numpy reference — pinned by the parity suites.
 *
 * scratch holds 3 * n uint64 words (the current frontier, next frontier
 * and visited bitmasks), then 4 * n + 1 + num_sources int32 entries:
 * the node ranks, the ranking queue (reused for the counting sort's
 * offsets), the frontier list, the touched list (n + 1) and the source
 * permutation.  radius < 0 means unbounded (nodes beyond a non-negative
 * radius count as unreached); view_radius < 0 means "no view counting"
 * (view sizes report 0).
 */
void repro_bfs_reduce(const int64_t *indptr, const int64_t *indices,
                      int64_t n, const int64_t *sources, int64_t num_sources,
                      int64_t radius, int64_t view_radius,
                      int64_t *ecc_out, int64_t *sum_out,
                      int64_t *unreached_out, int64_t *view_size_out,
                      uint64_t *scratch) {
    uint64_t *cur = scratch, *next = scratch + n, *visited = scratch + 2 * n;
    int32_t *rank = (int32_t *)(scratch + 3 * n), *queue = rank + n;
    int32_t *frontier = queue + n, *touched = frontier + n;
    int32_t *perm = touched + n + 1;
    if (num_sources > 64) {
        for (int64_t v = 0; v < n; ++v)
            rank[v] = -1;
        int64_t head = 0, tail = 0;
        for (int64_t root = 0; root < n; ++root) {
            if (rank[root] >= 0)
                continue;
            rank[root] = (int32_t)tail;
            queue[tail++] = (int32_t)root;
            while (head < tail) {
                int32_t v = queue[head++];
                int64_t estop = indptr[v + 1];
                for (int64_t e = indptr[v]; e < estop; ++e) {
                    int64_t u = indices[e];
                    if (rank[u] < 0) {
                        rank[u] = (int32_t)tail;
                        queue[tail++] = (int32_t)u;
                    }
                }
            }
        }
        int32_t *offset = queue;
        memset(offset, 0, (size_t)n * sizeof(int32_t));
        for (int64_t p = 0; p < num_sources; ++p)
            ++offset[rank[sources[p]]];
        int32_t start = 0;
        for (int64_t r = 0; r < n; ++r) {
            int32_t count = offset[r];
            offset[r] = start;
            start += count;
        }
        for (int64_t p = 0; p < num_sources; ++p)
            perm[offset[rank[sources[p]]]++] = (int32_t)p;
    } else {
        for (int64_t p = 0; p < num_sources; ++p)
            perm[p] = (int32_t)p;
    }
    memset(next, 0, (size_t)n * sizeof(uint64_t));
    for (int64_t b = 0; b < num_sources; b += 64) {
        int64_t batch = num_sources - b < 64 ? num_sources - b : 64;
        memset(visited, 0, (size_t)n * sizeof(uint64_t));
        int64_t ecc[64], total[64], in_view[64], reached[64];
        int64_t width = 0;
        for (int64_t i = 0; i < batch; ++i) {
            int64_t src = sources[perm[b + i]];
            if (!visited[src]) {
                frontier[width++] = (int32_t)src;
                cur[src] = 0;
            }
            cur[src] |= (uint64_t)1 << i;
            visited[src] |= (uint64_t)1 << i;
            ecc[i] = 0;
            total[i] = 0;
            reached[i] = 1;
            in_view[i] = view_radius >= 0 ? 1 : 0;
        }
        int64_t level = 0;
        while (width && (radius < 0 || level < radius)) {
            ++level;
            int64_t work = 0;
            for (int64_t j = 0; j < width; ++j)
                work += indptr[frontier[j] + 1] - indptr[frontier[j]];
            int sparse = work * REDUCE_SPARSE_FACTOR < n;
            int64_t num_touched = 0;
            /* Expand.  A frontier word is read only while its node is
             * listed, so stale words need no clearing.  next is all zero
             * between levels, so a level's first OR into a node is what
             * lists it as touched.  The append has no branch: each target
             * is written at the list's end and kept only if its word was
             * still zero, which needs one spare entry past n. */
            for (int64_t j = 0; j < width; ++j) {
                int32_t v = frontier[j];
                uint64_t w = cur[v];
                int64_t estop = indptr[v + 1];
                if (sparse) {
                    for (int64_t e = indptr[v]; e < estop; ++e) {
                        int64_t u = indices[e];
                        touched[num_touched] = (int32_t)u;
                        num_touched += !next[u];
                        next[u] |= w;
                    }
                } else {
                    for (int64_t e = indptr[v]; e < estop; ++e)
                        next[indices[e]] |= w;
                }
            }
            int64_t cnt[64];
            memset(cnt, 0, sizeof(cnt));
            width = 0;
            if (sparse) {
                for (int64_t j = 0; j < num_touched; ++j)
                    width = repro_settle(touched[j], cur, next, visited,
                                         frontier, width, cnt);
            } else {
                for (int64_t v = 0; v < n; ++v)
                    width = repro_settle(v, cur, next, visited, frontier,
                                         width, cnt);
            }
            for (int64_t i = 0; i < batch; ++i) {
                if (!cnt[i])
                    continue;
                reached[i] += cnt[i];
                total[i] += cnt[i] * level;
                ecc[i] = level;
                if (view_radius >= 0 && level <= view_radius)
                    in_view[i] += cnt[i];
            }
        }
        for (int64_t i = 0; i < batch; ++i) {
            int32_t p = perm[b + i];
            ecc_out[p] = ecc[i];
            sum_out[p] = total[i];
            unreached_out[p] = n - reached[i];
            view_size_out[p] = in_view[i];
        }
    }
}

/* One player's view over a CSR whose rows are sorted: a queue BFS from
 * player (bounded by radius, unbounded when radius < 0), then the visible
 * nodes other than player in ascending order (every node when radius < 0),
 * their distances, and the H - u sub-CSR: each visible node's row keeps
 * its visible neighbours other than player, renumbered to their positions
 * (a monotone renumbering, so the rows stay sorted).
 *
 * buffer holds, in order: the nodes (n), the distances (n), the sub-CSR
 * indptr (n + 1) and indices (indptr[n]), then 3 * n scratch words (BFS
 * marks, positions, queue).  Returns the number of visible nodes other
 * than player; the sub-CSR ends at its indptr entry of that index.
 */
int64_t repro_view(const int64_t *indptr, const int64_t *indices, int64_t n,
                   int64_t player, int64_t radius, int64_t unreachable,
                   int64_t *buffer) {
    int64_t *nodes = buffer, *dist = buffer + n, *sub_indptr = buffer + 2 * n;
    int64_t *sub_indices = sub_indptr + n + 1;
    int64_t *mark = sub_indices + indptr[n], *position = mark + n;
    int64_t *queue = position + n;
    for (int64_t v = 0; v < n; ++v) {
        mark[v] = unreachable;
        position[v] = -1;
    }
    int64_t head = 0, tail = 0;
    mark[player] = 0;
    queue[tail++] = player;
    while (head < tail) {
        int64_t node = queue[head++];
        int64_t d = mark[node];
        if (radius >= 0 && d >= radius)
            continue;
        int64_t estop = indptr[node + 1];
        for (int64_t e = indptr[node]; e < estop; ++e) {
            int64_t nb = indices[e];
            if (mark[nb] == unreachable) {
                mark[nb] = d + 1;
                queue[tail++] = nb;
            }
        }
    }
    int64_t m = 0;
    for (int64_t v = 0; v < n; ++v) {
        if (v == player || (radius >= 0 && mark[v] == unreachable))
            continue;
        position[v] = m;
        dist[m] = mark[v];
        nodes[m++] = v;
    }
    int64_t count = 0;
    sub_indptr[0] = 0;
    for (int64_t i = 0; i < m; ++i) {
        int64_t estop = indptr[nodes[i] + 1];
        for (int64_t e = indptr[nodes[i]]; e < estop; ++e) {
            int64_t local = position[indices[e]];
            if (local >= 0)
                sub_indices[count++] = local;
        }
        sub_indptr[i + 1] = count;
    }
    return m;
}

/* Branch-and-bound set-cover recursion, mirroring the numpy reference
 * step for step: most-constrained element (first minimum in element
 * order), candidates tried in order_by_size order, incumbent updated
 * only on strictly smaller covers.
 */
typedef struct {
    const uint8_t *coverage;   /* (num_free, num_elements) row-major 0/1 */
    int64_t num_free;
    int64_t num_elements;
    const int64_t *order_by_size;
    int64_t best_size;
    int64_t best_len;          /* -1 until the search improves the incumbent */
    int32_t *best_selection;   /* out buffer, num_free entries */
    int32_t *chosen;           /* depth buffer, num_free + 1 entries */
    uint8_t *remaining_stack;  /* (num_free + 2, num_elements) row-major */
} cover_ctx;

static void cover_recurse(cover_ctx *ctx, int64_t depth) {
    const int64_t num_elements = ctx->num_elements;
    const uint8_t *remaining = ctx->remaining_stack + depth * num_elements;
    int64_t num_remaining = 0;
    for (int64_t e = 0; e < num_elements; ++e)
        num_remaining += remaining[e];
    if (num_remaining == 0) {
        if (depth < ctx->best_size) {
            ctx->best_size = depth;
            ctx->best_len = depth;
            for (int64_t i = 0; i < depth; ++i)
                ctx->best_selection[i] = ctx->chosen[i];
        }
        return;
    }
    if (depth + 1 > ctx->best_size)
        return;
    int64_t max_gain = 0;
    for (int64_t c = 0; c < ctx->num_free; ++c) {
        const uint8_t *cov = ctx->coverage + c * num_elements;
        int64_t gain = 0;
        for (int64_t e = 0; e < num_elements; ++e)
            gain += (int64_t)(cov[e] & remaining[e]);
        if (gain > max_gain)
            max_gain = gain;
    }
    if (max_gain == 0)
        return;
    int64_t lower = depth + (num_remaining + max_gain - 1) / max_gain;
    if (lower >= ctx->best_size + 1)
        return;
    /* Most-constrained element: fewest covering candidates, first minimum
     * in element order (numpy's argmin over the remaining columns). */
    int64_t element = -1;
    int64_t element_count = -1;
    for (int64_t e = 0; e < num_elements; ++e) {
        if (!remaining[e])
            continue;
        int64_t count = 0;
        for (int64_t c = 0; c < ctx->num_free; ++c)
            count += (int64_t)ctx->coverage[c * num_elements + e];
        if (element_count < 0 || count < element_count) {
            element_count = count;
            element = e;
        }
    }
    uint8_t *next_remaining = ctx->remaining_stack + (depth + 1) * num_elements;
    for (int64_t pos = 0; pos < ctx->num_free; ++pos) {
        int64_t cand = ctx->order_by_size[pos];
        if (!ctx->coverage[cand * num_elements + element])
            continue;
        int already = 0;
        for (int64_t i = 0; i < depth; ++i) {
            if (ctx->chosen[i] == (int32_t)cand) {
                already = 1;
                break;
            }
        }
        if (already)
            continue;
        const uint8_t *cov = ctx->coverage + cand * num_elements;
        for (int64_t e = 0; e < num_elements; ++e)
            next_remaining[e] = (uint8_t)(remaining[e] & !cov[e]);
        ctx->chosen[depth] = (int32_t)cand;
        cover_recurse(ctx, depth + 1);
    }
}

int64_t repro_cover_search(const uint8_t *coverage, int64_t num_free,
                           int64_t num_elements, const int64_t *order_by_size,
                           int64_t best_size, int32_t *best_selection,
                           int32_t *chosen, uint8_t *remaining_stack) {
    cover_ctx ctx;
    ctx.coverage = coverage;
    ctx.num_free = num_free;
    ctx.num_elements = num_elements;
    ctx.order_by_size = order_by_size;
    ctx.best_size = best_size;
    ctx.best_len = -1;
    ctx.best_selection = best_selection;
    ctx.chosen = chosen;
    ctx.remaining_stack = remaining_stack;
    for (int64_t e = 0; e < num_elements; ++e)
        remaining_stack[e] = 1;
    cover_recurse(&ctx, 0);
    return ctx.best_len;
}

/* Greedy cover of a coverable residual: the row covering the most
 * still-uncovered columns, first such row on ties (numpy's argmax over
 * the float32 gains, which are exact integer counts).  Returns the pick
 * count; picks holds row positions in pick order. */
static int64_t greedy_cover(const uint8_t *cov, int64_t num_free,
                            int64_t num_elements, uint8_t *remaining,
                            int32_t *picks) {
    int64_t left = num_elements, len = 0;
    memset(remaining, 1, (size_t)num_elements);
    while (left > 0) {
        int64_t best = 0, best_gain = -1;
        for (int64_t c = 0; c < num_free; ++c) {
            const uint8_t *row = cov + c * num_elements;
            int64_t gain = 0;
            for (int64_t e = 0; e < num_elements; ++e)
                gain += (int64_t)(row[e] & remaining[e]);
            if (gain > best_gain) {
                best_gain = gain;
                best = c;
            }
        }
        picks[len++] = (int32_t)best;
        const uint8_t *row = cov + best * num_elements;
        for (int64_t e = 0; e < num_elements; ++e) {
            if (row[e] && remaining[e]) {
                remaining[e] = 0;
                --left;
            }
        }
    }
    return len;
}

static int compare_int32(const void *a, const void *b) {
    int32_t x = *(const int32_t *)a, y = *(const int32_t *)b;
    return (x > y) - (x < y);
}

/* Callback into the wrapper: write numpy's argsort of the negated first
 * count cover sizes into the order block of the shared buffer. */
typedef void (*order_callback)(int64_t count);

/* The whole MaxNCG reply loop over eccentricity guesses h, mirroring
 * repro.solvers.set_cover.max_reply with the branch-and-bound solver step
 * for step: residual after the forced rows, uncoverable check, root lower
 * bound, warm-start positions, greedy incumbent, size cap, capped search
 * (cover_recurse), strictly-better-by-eps acceptance.
 *
 * dist is the (n, n) row-major int32 distance matrix.  buffer holds the
 * num_forced sorted buyer rows, then three n-entry blocks: the cover
 * sizes, the search order and the selection.  *best_cost is the
 * incumbent's cost in, the reply's cost out.  Returns the length of the
 * accepted cover (its rows in the selection block, in the solver's
 * order), -1 when nothing beat the incumbent, -2 when scratch memory
 * cannot be allocated.  The search's candidate order is
 * numpy's unstable argsort of the negated cover sizes, whose tie order is
 * numpy's own (SIMD sorting networks on some hosts), so the loop asks the
 * wrapper for it through sort_sizes, once per search it runs.
 */
int64_t repro_max_reply(const int32_t *dist, int64_t n, int64_t *buffer,
                        int64_t num_forced, double alpha, double eps,
                        double *best_cost, int64_t warm_start,
                        order_callback sort_sizes) {
    const int64_t *forced = buffer;
    int64_t *sizes = buffer + num_forced, *selection = sizes + 2 * n;
    const int64_t *order = sizes + n;
    size_t words = (size_t)(n + 1);
    int64_t *free_rows = malloc(2 * words * sizeof(int64_t));
    int32_t *buffers = malloc(5 * words * sizeof(int32_t));
    uint8_t *bytes = malloc(words + (size_t)n * (size_t)n + (words + 1) * (size_t)n
                            + words);
    if (!free_rows || !buffers || !bytes) {
        free(free_rows);
        free(buffers);
        free(bytes);
        return -2;
    }
    int64_t *elements = free_rows + words;
    int32_t *greedy = buffers, *warm = buffers + words;
    int32_t *previous = buffers + 2 * words, *chosen = buffers + 3 * words;
    int32_t *found = buffers + 4 * words;
    uint8_t *is_forced = bytes, *cov = bytes + words;
    uint8_t *remaining_stack = cov + (size_t)n * (size_t)n;
    uint8_t *remaining = remaining_stack + (words + 1) * (size_t)n;

    memset(is_forced, 0, words);
    for (int64_t i = 0; i < num_forced; ++i)
        is_forced[forced[i]] = 1;
    int64_t num_free = 0;
    for (int64_t c = 0; c < n; ++c)
        if (!is_forced[c])
            free_rows[num_free++] = c;

    int64_t accepted = -1, previous_len = -1;
    for (int64_t h = 1; h <= n; ++h) {
        if ((double)h >= *best_cost - eps)
            break;
        const int32_t limit = (int32_t)(h - 1);
        /* Residual elements: within h - 1 of no forced row. */
        int64_t num_elements = 0;
        for (int64_t e = 0; e < n; ++e) {
            int hit = 0;
            for (int64_t i = 0; i < num_forced && !hit; ++i)
                hit = dist[forced[i] * n + e] <= limit;
            if (!hit)
                elements[num_elements++] = e;
        }
        const int32_t *cover = greedy;
        int64_t size = 0;
        if (num_elements > 0) {
            if (num_free == 0)
                continue;
            int64_t max_size = 0, coverable = 1;
            for (int64_t c = 0; c < num_free; ++c) {
                const int32_t *row = dist + free_rows[c] * n;
                uint8_t *out = cov + c * num_elements;
                int64_t count = 0;
                for (int64_t j = 0; j < num_elements; ++j) {
                    out[j] = row[elements[j]] <= limit;
                    count += out[j];
                }
                sizes[c] = count;
                if (count > max_size)
                    max_size = count;
            }
            for (int64_t j = 0; j < num_elements && coverable; ++j) {
                coverable = 0;
                for (int64_t c = 0; c < num_free && !coverable; ++c)
                    coverable = cov[c * num_elements + j];
            }
            if (!coverable)
                continue;
            int64_t lower = (num_elements + max_size - 1) / max_size;
            int has_cap = warm_start && isfinite(*best_cost);
            int64_t cap = 0;
            if (has_cap) {
                /* Clamped where it can no longer bind: every cover has at
                 * most num_free <= n rows. */
                double bound = ceil((*best_cost - eps - (double)h) / alpha);
                cap = bound > (double)n ? n + 1 : bound < -1.0 ? -1 : (int64_t)bound;
                if (lower > cap)
                    continue;
            }
            /* The previous cover, as sorted positions, if it still covers. */
            int64_t warm_len = -1;
            if (warm_start && previous_len > 0) {
                memcpy(warm, previous, (size_t)previous_len * sizeof(int32_t));
                qsort(warm, (size_t)previous_len, sizeof(int32_t), compare_int32);
                memset(remaining, 1, (size_t)num_elements);
                int64_t left = num_elements;
                for (int64_t i = 0; i < previous_len; ++i) {
                    const uint8_t *row = cov + (int64_t)warm[i] * num_elements;
                    for (int64_t j = 0; j < num_elements; ++j) {
                        if (row[j] && remaining[j]) {
                            remaining[j] = 0;
                            --left;
                        }
                    }
                }
                if (left == 0)
                    warm_len = previous_len;
            }
            if (warm_len >= 0 && warm_len == lower) {
                cover = warm;
                size = warm_len;
            } else {
                int64_t greedy_len = greedy_cover(cov, num_free, num_elements,
                                                  remaining, greedy);
                int64_t best_size = greedy_len;
                if (has_cap && cap < best_size)
                    best_size = cap;
                cover = greedy_len <= best_size ? greedy : NULL;
                size = greedy_len;
                if (warm_len >= 0 && warm_len <= best_size) {
                    best_size = warm_len;
                    cover = warm;
                    size = warm_len;
                }
                if (lower < best_size) {
                    sort_sizes(num_free);
                    cover_ctx ctx;
                    ctx.coverage = cov;
                    ctx.num_free = num_free;
                    ctx.num_elements = num_elements;
                    ctx.order_by_size = order;
                    ctx.best_size = best_size;
                    ctx.best_len = -1;
                    ctx.best_selection = found;
                    ctx.chosen = chosen;
                    ctx.remaining_stack = remaining_stack;
                    memset(remaining_stack, 1, (size_t)num_elements);
                    cover_recurse(&ctx, 0);
                    if (ctx.best_len >= 0) {
                        cover = found;
                        size = ctx.best_len;
                    }
                }
                if (cover == NULL)
                    continue;
            }
        }
        /* A feasible cover of size `size` at this h. */
        memcpy(previous, cover, (size_t)size * sizeof(int32_t));
        previous_len = size;
        double cost = alpha * (double)size + (double)h;
        if (cost < *best_cost - eps) {
            *best_cost = cost;
            accepted = size;
            for (int64_t i = 0; i < size; ++i)
                selection[i] = free_rows[previous[i]];
        }
    }
    free(free_rows);
    free(buffers);
    free(bytes);
    return accepted;
}

/* SumNCG pricing, mirroring repro.solvers.sum_reply.SumEvaluator: a
 * strategy's column minima over the (n, n) int32 distances of H - u (its
 * rows and the forced rows) give its cost and its frontier veto. */
typedef struct {
    const int32_t *dist;
    int64_t n;
    const int32_t *base;       /* column minimum of the forced rows */
    const int64_t *frontier;   /* frontier columns */
    const double *limits;      /* the largest allowed minimum per column */
    int64_t num_frontier;
    double alpha, beta;
} sum_ctx;

/* INT32_MAX is the UNREACHABLE mark.  The cost is alpha * size plus
 * CostModel.fold_sum: the finite sum as a double, plus beta per unreached
 * column only when one is unreached. */
static double sum_price(const sum_ctx *ctx, const int32_t *minima, int64_t size,
                        int *forbidden) {
    int64_t reached = 0, total = 0;
    for (int64_t j = 0; j < ctx->n; ++j) {
        if (minima[j] != INT32_MAX) {
            ++reached;
            total += minima[j];
        }
    }
    total += reached;
    int64_t unreached = ctx->n - reached;
    double fold = (double)total;
    if (unreached > 0)
        fold += ctx->beta * (double)unreached;
    int veto = 0;
    for (int64_t f = 0; f < ctx->num_frontier && !veto; ++f)
        veto = (double)minima[ctx->frontier[f]] > ctx->limits[f];
    *forbidden = veto;
    return ctx->alpha * (double)size + fold;
}

/* worst_case_delta from a strategy of cost old_cost: inf when vetoed,
 * inf - inf -> 0.0, finite - inf -> -inf. */
static double sum_delta(double old_cost, double cost, int forbidden) {
    if (forbidden)
        return INFINITY;
    if (isinf(old_cost))
        return isinf(cost) ? 0.0 : -INFINITY;
    return cost - old_cost;
}

static void min_rows(int32_t *out, const int32_t *a, const int32_t *b, int64_t n) {
    for (int64_t j = 0; j < n; ++j)
        out[j] = a[j] < b[j] ? a[j] : b[j];
}

/* Advance a k-subset of 0..m-1 to the next one in itertools.combinations
 * order; returns the first position that changed, -1 after the last. */
static int64_t next_combination(int64_t *combo, int64_t k, int64_t m) {
    int64_t i = k - 1;
    while (i >= 0 && combo[i] == m - k + i)
        --i;
    if (i < 0)
        return -1;
    ++combo[i];
    for (int64_t j = i + 1; j < k; ++j)
        combo[j] = combo[j - 1] + 1;
    return i;
}

/* Column minima of the combination held in combo, recomputed from
 * position `from` on: pref holds k + 1 rows, pref[0] the forced minimum
 * and pref[d + 1] the minimum over the first d + 1 members. */
static void combination_minima(const sum_ctx *ctx, const int64_t *cand,
                               const int64_t *combo, int64_t k, int64_t from,
                               int32_t *pref) {
    const int64_t n = ctx->n;
    for (int64_t d = from; d < k; ++d)
        min_rows(pref + (d + 1) * n, pref + d * n, ctx->dist + cand[combo[d]] * n, n);
}

/* The pruned class enumeration of repro.solvers.sum_reply._enumerate:
 * classes in (bound, size) order until one's bound exceeds prune_cost +
 * eps, each priced in combinations order into deltas (one block per size
 * at offset[size]), prune_cost tightened by the class's smallest finite
 * delta; then the canonical scan in size-then-combinations order keeps the
 * first subset strictly better by eps that differs from the current
 * strategy.  Returns the reply's length (members in best) or -1. */
static int64_t sum_enumerate(const sum_ctx *ctx, const int64_t *cand, int64_t m,
                             int64_t num_forced, const uint8_t *in_current,
                             int64_t num_current, double current_cost,
                             double prune_cost, double eps, double *best_cost,
                             int64_t *best, int64_t *combo, int32_t *pref,
                             double *deltas, int64_t *offset, int64_t *sizes,
                             double *bounds, uint8_t *priced) {
    const int64_t n = ctx->n;
    double far_cost = ctx->beta < 2.0 ? ctx->beta : 2.0;
    offset[0] = 0;
    for (int64_t k = 0; k <= m; ++k) {
        int64_t near = k + num_forced < m ? k + num_forced : m;
        bounds[k] = ctx->alpha * (double)k + (double)near + (double)(m - near) * far_cost;
        priced[k] = 0;
        /* offset[k + 1] = offset[k] + C(m, k) */
        int64_t choose = 1;
        for (int64_t i = 0; i < k; ++i)
            choose = choose * (m - i) / (i + 1);
        offset[k + 1] = offset[k] + choose;
        /* Insertion sort by (bound, size): sizes arrive ascending. */
        int64_t at = k;
        while (at > 0 && bounds[sizes[at - 1]] > bounds[k]) {
            sizes[at] = sizes[at - 1];
            --at;
        }
        sizes[at] = k;
    }
    memcpy(pref, ctx->base, (size_t)n * sizeof(int32_t));
    for (int64_t s = 0; s <= m; ++s) {
        int64_t k = sizes[s];
        if (bounds[k] > prune_cost + eps)
            break;
        priced[k] = 1;
        double *out = deltas + offset[k];
        int64_t rank = 0, from = 0, any = 0;
        double smallest = 0.0;
        for (int64_t d = 0; d < k; ++d)
            combo[d] = d;
        do {
            combination_minima(ctx, cand, combo, k, from, pref);
            int forbidden;
            double cost = sum_price(ctx, pref + k * n, k, &forbidden);
            double delta = sum_delta(current_cost, cost, forbidden);
            out[rank++] = delta;
            if (isfinite(delta) && (!any || delta < smallest)) {
                smallest = delta;
                any = 1;
            }
            from = next_combination(combo, k, m);
        } while (from >= 0);
        if (any && current_cost + smallest < prune_cost)
            prune_cost = current_cost + smallest;
    }
    int64_t best_len = -1;
    *best_cost = current_cost;
    if (isinf(current_cost))
        return best_len;  /* nothing lies below an infinite incumbent */
    for (int64_t k = 0; k <= m; ++k) {
        if (!priced[k])
            continue;
        const double *out = deltas + offset[k];
        int64_t rank = 0;
        for (int64_t d = 0; d < k; ++d)
            combo[d] = d;
        do {
            double delta = out[rank++];
            if (current_cost + delta < *best_cost - eps) {
                int same = k == num_current;
                for (int64_t d = 0; d < k && same; ++d)
                    same = in_current[combo[d]];
                if (!same) {
                    *best_cost = current_cost + delta;
                    best_len = k;
                    memcpy(best, combo, (size_t)k * sizeof(int64_t));
                }
            }
        } while (next_combination(combo, k, m) >= 0);
    }
    return best_len;
}

/* One first-improvement climb of repro.solvers.sum_reply._hill_climb over
 * the membership flags in_s: per step, the directly priced cost of the
 * strategy left (old_cost) against every add, then every drop, then every
 * swap (removed-major), each in candidate order; the first move with
 * best_cost + delta < best_cost - eps is taken and best_cost becomes that
 * running sum.  Stops after max_iterations steps or at a step without an
 * improving move. */
static void sum_climb(const sum_ctx *ctx, const int64_t *cand, int64_t m,
                      uint8_t *in_s, double *best_cost, int64_t max_iterations,
                      double eps, int64_t *present, int64_t *absent,
                      int32_t *strategy_min, int32_t *minima, int32_t *without) {
    const int64_t n = ctx->n;
    for (int64_t step = 0; step < max_iterations; ++step) {
        int64_t num_present = 0, num_absent = 0;
        for (int64_t pos = 0; pos < m; ++pos) {
            if (in_s[pos])
                present[num_present++] = pos;
            else
                absent[num_absent++] = pos;
        }
        if (isinf(*best_cost))
            return;  /* nothing lies below an infinite running cost */
        memcpy(strategy_min, ctx->base, (size_t)n * sizeof(int32_t));
        for (int64_t i = 0; i < num_present; ++i)
            min_rows(strategy_min, strategy_min, ctx->dist + cand[present[i]] * n, n);
        int forbidden;
        double old_cost = sum_price(ctx, strategy_min, num_present, &forbidden);
        double bar = *best_cost - eps;
        int moved = 0;
        for (int64_t a = 0; a < num_absent && !moved; ++a) {
            min_rows(minima, strategy_min, ctx->dist + cand[absent[a]] * n, n);
            double cost = sum_price(ctx, minima, num_present + 1, &forbidden);
            double delta = sum_delta(old_cost, cost, forbidden);
            if (*best_cost + delta < bar) {
                in_s[absent[a]] = 1;
                *best_cost = *best_cost + delta;
                moved = 1;
            }
        }
        if (!moved && num_present) {
            for (int64_t i = 0; i < num_present; ++i) {
                int32_t *row = without + i * n;
                memcpy(row, ctx->base, (size_t)n * sizeof(int32_t));
                for (int64_t j = 0; j < num_present; ++j)
                    if (j != i)
                        min_rows(row, row, ctx->dist + cand[present[j]] * n, n);
            }
            for (int64_t i = 0; i < num_present && !moved; ++i) {
                double cost = sum_price(ctx, without + i * n, num_present - 1, &forbidden);
                double delta = sum_delta(old_cost, cost, forbidden);
                if (*best_cost + delta < bar) {
                    in_s[present[i]] = 0;
                    *best_cost = *best_cost + delta;
                    moved = 1;
                }
            }
            for (int64_t i = 0; i < num_present && !moved; ++i) {
                for (int64_t a = 0; a < num_absent && !moved; ++a) {
                    min_rows(minima, without + i * n, ctx->dist + cand[absent[a]] * n, n);
                    double cost = sum_price(ctx, minima, num_present, &forbidden);
                    double delta = sum_delta(old_cost, cost, forbidden);
                    if (*best_cost + delta < bar) {
                        in_s[present[i]] = 0;
                        in_s[absent[a]] = 1;
                        *best_cost = *best_cost + delta;
                        moved = 1;
                    }
                }
            }
        }
        if (!moved)
            return;
    }
}

/* One SumNCG reply, mirroring repro.solvers.sum_reply.sum_reply.
 *
 * ints holds, in order: the num_forced buyer rows, the m candidate rows
 * (a permutation of the rows of the strategy space, in scan order), the
 * num_frontier frontier columns, the num_current rows of the current
 * strategy, the num_start rows of the start strategy (none when
 * num_start < 0) and m output entries for the reply's rows.  limits holds
 * the frontier limits.  max_iterations < 0 runs the pruned enumeration
 * (the start seeds its pruning bound); otherwise one climb from the start
 * at start_cost, or from the current strategy at its cost.  costs receives
 * the current strategy's cost and the reply's.  Returns the reply's
 * length (its rows in candidate order), -1 when the reply is the strategy
 * the search started from, -2 when scratch memory cannot be allocated.
 */
int64_t repro_sum_reply(const int32_t *dist, int64_t n, int64_t *ints,
                        int64_t num_forced, int64_t m, int64_t num_frontier,
                        int64_t num_current, int64_t num_start,
                        const double *limits, double alpha, double beta,
                        double eps, double start_cost, int64_t max_iterations,
                        double *costs) {
    const int64_t *forced = ints, *cand = ints + num_forced;
    const int64_t *frontier = cand + m, *current = frontier + num_frontier;
    const int64_t *start = current + num_current;
    int64_t *selection = (int64_t *)start + (num_start > 0 ? num_start : 0);
    int exhaustive = max_iterations < 0;
    if (exhaustive && m > 40)
        return -2;  /* 2^m deltas cannot be held */
    size_t words = (size_t)n + 1, slots = (size_t)m + 1;
    size_t num_deltas = exhaustive ? (size_t)1 << m : 0;
    int64_t *longs = malloc((words + 5 * slots) * sizeof(int64_t));
    /* The forced minimum, then m + 1 prefix minima (enumeration) or the
     * strategy's minimum, one neighbour's and m leave-one-out rows (climb). */
    int32_t *mins = malloc(((size_t)m + 3) * words * sizeof(int32_t));
    double *doubles = malloc((num_deltas + slots) * sizeof(double));
    uint8_t *flags = malloc(3 * slots);
    if (!longs || !mins || !doubles || !flags) {
        free(longs);
        free(mins);
        free(doubles);
        free(flags);
        return -2;
    }
    int64_t *position = longs, *combo = longs + words, *best = combo + slots;
    int64_t *offset = best + slots, *sizes = offset + slots + 1;
    int32_t *base = mins, *work = mins + words;
    double *bounds = doubles, *deltas = doubles + slots;
    uint8_t *in_current = flags, *in_s = flags + slots, *priced = flags + 2 * slots;

    for (int64_t j = 0; j < n; ++j)
        base[j] = INT32_MAX;
    for (int64_t i = 0; i < num_forced; ++i)
        min_rows(base, base, dist + forced[i] * n, n);
    sum_ctx ctx = {dist, n, base, frontier, limits, num_frontier, alpha, beta};
    for (int64_t pos = 0; pos < m; ++pos) {
        position[cand[pos]] = pos;
        in_current[pos] = 0;
    }
    memcpy(work, base, (size_t)n * sizeof(int32_t));
    for (int64_t i = 0; i < num_current; ++i) {
        in_current[position[current[i]]] = 1;
        min_rows(work, work, dist + current[i] * n, n);
    }
    int forbidden;
    double current_cost = sum_price(&ctx, work, num_current, &forbidden);
    costs[0] = current_cost;

    int64_t found = -1;
    if (exhaustive) {
        double prune_cost = current_cost;
        if (num_start >= 0) {
            memcpy(work, base, (size_t)n * sizeof(int32_t));
            for (int64_t i = 0; i < num_start; ++i)
                min_rows(work, work, dist + start[i] * n, n);
            double cost = sum_price(&ctx, work, num_start, &forbidden);
            double delta = sum_delta(current_cost, cost, forbidden);
            if (!isinf(delta) && current_cost + delta < prune_cost)
                prune_cost = current_cost + delta;
        }
        int64_t len = sum_enumerate(&ctx, cand, m, num_forced, in_current,
                                    num_current, current_cost, prune_cost, eps,
                                    &costs[1], best, combo, work, deltas, offset,
                                    sizes, bounds, priced);
        for (int64_t i = 0; i < len; ++i)
            selection[i] = cand[best[i]];
        found = len;
    } else {
        uint8_t *origin = in_current;
        if (num_start >= 0) {
            origin = priced;
            memset(origin, 0, (size_t)m);
            for (int64_t i = 0; i < num_start; ++i)
                origin[position[start[i]]] = 1;
        } else {
            start_cost = current_cost;
        }
        memcpy(in_s, origin, (size_t)m);
        costs[1] = start_cost;
        sum_climb(&ctx, cand, m, in_s, &costs[1], max_iterations, eps, combo, best,
                  work, work + words, work + 2 * words);
        if (memcmp(in_s, origin, (size_t)m) != 0) {
            found = 0;
            for (int64_t pos = 0; pos < m; ++pos)
                if (in_s[pos])
                    selection[found++] = cand[pos];
        }
    }
    free(longs);
    free(mins);
    free(doubles);
    free(flags);
    return found;
}
"""

#: Arrays cross into C as raw addresses (see :func:`_address`): a
#: ``c_void_p`` argument skips the pointer object a
#: ``data_as(POINTER(...))`` cast builds per call.
_PTR = ctypes.c_void_p
_I64 = ctypes.c_int64

#: ``sort_sizes(count)`` of ``repro_max_reply``.
_ORDER_CALLBACK = ctypes.CFUNCTYPE(None, ctypes.c_int64)

#: Compiler flags of the one build.  No contraction of ``a * b + c`` into
#: a fused multiply-add, so reply costs round exactly like Python's.
_FLAGS = ("-O2", "-shared", "-fPIC", "-ffp-contract=off")

_library: ctypes.CDLL | None = None


def _address(array: np.ndarray) -> int:
    """The data address of a C-contiguous array.

    ``ctypes.addressof`` of a one-byte ctypes view of the buffer costs a
    third of ``array.ctypes.data``, which builds a helper object per call
    and dominated the small calls of the engine's hot path; read-only and
    empty arrays, which ``from_buffer`` refuses, take the slow path.
    """
    try:
        return ctypes.addressof(ctypes.c_char.from_buffer(array))
    except (TypeError, ValueError, BufferError):
        return array.ctypes.data


def _cache_dir() -> Path:
    override = os.environ.get("REPRO_KERNEL_CACHE")
    if override:
        return Path(override)
    return Path.home() / ".cache" / "repro-kernels"


def _compile(cache_dir: Path, target: Path) -> None:
    from repro.kernels import KernelUnavailableError

    compiler = os.environ.get("CC", "cc")
    try:
        cache_dir.mkdir(parents=True, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=cache_dir) as workdir:
            source = Path(workdir) / "kernels.c"
            source.write_text(_SOURCE)
            built = Path(workdir) / target.name
            command = [compiler, *_FLAGS]
            command += ["-o", str(built), str(source), "-lm"]
            try:
                result = subprocess.run(
                    command, capture_output=True, text=True, timeout=120
                )
            except (OSError, subprocess.TimeoutExpired) as exc:
                raise KernelUnavailableError(
                    f"native kernel backend: C compiler {compiler!r} unusable: {exc}"
                ) from exc
            if result.returncode != 0:
                raise KernelUnavailableError(
                    f"native kernel backend: compilation failed:\n{result.stderr}"
                )
            # Atomic publish: another process racing the build lands on the
            # same content-addressed name, so a rename collision is a cache hit.
            built.replace(target)
    except OSError as exc:
        raise KernelUnavailableError(
            f"native kernel backend: kernel cache {cache_dir} unusable: {exc}"
        ) from exc


def load_library() -> ctypes.CDLL:
    """Compile (once, content-addressed) and load the kernel library.

    The cache name hashes the source *and* the compiler flags, so editing
    either builds a fresh object instead of loading a stale one.
    """
    global _library
    if _library is not None:
        return _library
    from repro.kernels import KernelUnavailableError

    cache_dir = _cache_dir()
    tag = _SOURCE + "\x00" + " ".join(_FLAGS)
    digest = hashlib.sha256(tag.encode()).hexdigest()[:16]
    target = cache_dir / f"repro-kernels-{digest}.so"
    if not target.exists():
        _compile(cache_dir, target)
    try:
        library = ctypes.CDLL(str(target))
    except OSError as exc:
        raise KernelUnavailableError(
            f"native kernel backend: cannot load {target}: {exc}"
        ) from exc
    library.repro_bfs_batch.argtypes = [
        _PTR, _PTR, _I64, _PTR, _I64, _I64, ctypes.c_int32, _PTR, _PTR,
    ]
    library.repro_bfs_batch.restype = None
    library.repro_bfs_reduce.argtypes = [
        _PTR, _PTR, _I64, _PTR, _I64, _I64, _I64, _PTR, _PTR, _PTR, _PTR, _PTR,
    ]
    library.repro_bfs_reduce.restype = None
    library.repro_view.argtypes = [_PTR, _PTR, _I64, _I64, _I64, _I64, _PTR]
    library.repro_view.restype = _I64
    library.repro_cover_search.argtypes = [
        _PTR, _I64, _I64, _PTR, _I64, _PTR, _PTR, _PTR,
    ]
    library.repro_cover_search.restype = _I64
    library.repro_max_reply.argtypes = [
        _PTR, _I64, _PTR, _I64, ctypes.c_double, ctypes.c_double,
        ctypes.POINTER(ctypes.c_double), _I64, _ORDER_CALLBACK,
    ]
    library.repro_max_reply.restype = _I64
    library.repro_sum_reply.argtypes = [
        _PTR, _I64, _PTR, _I64, _I64, _I64, _I64, _I64, _PTR,
        ctypes.c_double, ctypes.c_double, ctypes.c_double, ctypes.c_double, _I64, _PTR,
    ]
    library.repro_sum_reply.restype = _I64
    _library = library
    return library


def bfs(
    indptr: np.ndarray,
    indices: np.ndarray,
    sources: np.ndarray,
    radius: int | None,
    dist: np.ndarray,
) -> np.ndarray:
    """Per-source queue BFS in C; same contract as the numpy backend."""
    from repro.kernels.common import UNREACHABLE

    library = load_library()
    n = len(indptr) - 1
    indptr = np.ascontiguousarray(indptr, dtype=np.int64)
    indices = np.ascontiguousarray(indices, dtype=np.int64)
    sources = np.ascontiguousarray(sources, dtype=np.int64)
    queue = np.empty(max(n, 1), dtype=np.int32)
    library.repro_bfs_batch(
        _address(indptr),
        _address(indices),
        n,
        _address(sources),
        sources.size,
        -1 if radius is None else int(radius),
        UNREACHABLE,
        _address(dist),
        _address(queue),
    )
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
    """Fused BFS + fold in C; same contract as the numpy backend."""
    library = load_library()
    n = len(indptr) - 1
    indptr = np.ascontiguousarray(indptr, dtype=np.int64)
    indices = np.ascontiguousarray(indices, dtype=np.int64)
    sources = np.ascontiguousarray(sources, dtype=np.int64)
    # One buffer: three uint64 bitmask words per node, then the int32
    # ranks, queue, frontier list (n each), touched list (n + 1) and the
    # source permutation, two int32 entries per word.
    int32_entries = 4 * n + 1 + sources.size
    scratch = np.empty(max(3 * n + (int32_entries + 1) // 2, 1), dtype=np.uint64)
    library.repro_bfs_reduce(
        _address(indptr),
        _address(indices),
        n,
        _address(sources),
        sources.size,
        -1 if radius is None else int(radius),
        -1 if view_radius is None else int(view_radius),
        _address(ecc_out),
        _address(sum_out),
        _address(unreached_out),
        _address(view_size_out),
        _address(scratch),
    )


def view(
    indptr: np.ndarray,
    indices: np.ndarray,
    player: int,
    radius: int | None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """One player's view in one C call; same contract as the numpy backend.

    The four outputs are slices of one buffer, so a caller that keeps them
    copies what it keeps.
    """
    from repro.kernels.common import UNREACHABLE

    library = load_library()
    n = len(indptr) - 1
    indptr = np.ascontiguousarray(indptr, dtype=np.int64)
    indices = np.ascontiguousarray(indices, dtype=np.int64)
    buffer = np.empty(6 * n + 1 + indices.size, dtype=np.int64)
    m = library.repro_view(
        _address(indptr),
        _address(indices),
        n,
        int(player),
        -1 if radius is None else int(radius),
        UNREACHABLE,
        _address(buffer),
    )
    sub_indptr = buffer[2 * n:2 * n + m + 1]
    start = 3 * n + 1
    return buffer[:m], buffer[n:n + m], sub_indptr, buffer[start:start + int(sub_indptr[m])]


def cover_search(
    coverage: np.ndarray,
    order_by_size: np.ndarray,
    best_size: int,
    best_selection: list[int] | None,
) -> tuple[int, list[int] | None]:
    """Branch-and-bound recursion in C; same contract as the numpy backend."""
    library = load_library()
    num_free, num_elements = coverage.shape
    cover_bytes = np.ascontiguousarray(coverage, dtype=np.uint8)
    order = np.ascontiguousarray(order_by_size, dtype=np.int64)
    selection = np.empty(num_free + 1, dtype=np.int32)
    chosen = np.empty(num_free + 1, dtype=np.int32)
    remaining_stack = np.empty((num_free + 2) * num_elements, dtype=np.uint8)
    found = int(
        library.repro_cover_search(
            _address(cover_bytes),
            num_free,
            num_elements,
            _address(order),
            int(best_size),
            _address(selection),
            _address(chosen),
            _address(remaining_stack),
        )
    )
    if found < 0:
        return best_size, best_selection
    return found, [int(idx) for idx in selection[:found]]


def max_reply(
    dist: np.ndarray,
    forced: tuple[int, ...],
    alpha: float,
    best_cost: float,
    warm_start: bool,
) -> tuple[float, tuple[int, ...] | None]:
    """The whole eccentricity-guess loop in one C call; same contract as the
    numpy backend."""
    from repro.kernels.common import COST_EPS

    library = load_library()
    n = dist.shape[0]
    dist = np.ascontiguousarray(dist, dtype=np.int32)
    # One buffer, one pointer: the forced rows, then the cover sizes, the
    # search order and the selection, n entries each.  Zeroed, so the order
    # block holds valid rows even if a callback fails before writing it.
    num_forced = len(forced)
    buffer = np.zeros(num_forced + 3 * n, dtype=np.int64)
    buffer[:num_forced] = forced
    sizes = buffer[num_forced:num_forced + n]
    order = buffer[num_forced + n:num_forced + 2 * n]
    errors: list[BaseException] = []

    def sort_sizes(count: int) -> None:
        # ctypes swallows a callback's exception: keep it for the caller.
        try:
            order[:count] = np.argsort(-sizes[:count])
        except BaseException as exc:
            errors.append(exc)

    callback = _ORDER_CALLBACK(sort_sizes)
    cost = ctypes.c_double(best_cost)
    found = library.repro_max_reply(
        _address(dist), n, _address(buffer), num_forced, alpha, COST_EPS,
        ctypes.byref(cost), bool(warm_start), callback,
    )
    if errors:
        raise errors[0]
    if found == -2:
        raise MemoryError("native max_reply: cannot allocate its scratch")
    if found < 0:
        return best_cost, None
    start = num_forced + 2 * n
    return cost.value, tuple(buffer[start:start + found].tolist())


def sum_reply(
    dist: np.ndarray,
    forced: tuple[int, ...],
    frontier_columns: np.ndarray,
    frontier_limits: np.ndarray,
    alpha: float,
    beta: float,
    candidates: np.ndarray,
    current: list[int],
    start: list[int] | None,
    start_cost: float,
    max_iterations: int | None,
) -> tuple[float, float, tuple[int, ...] | None]:
    """One SumNCG reply — the pruned enumeration or one climb — in one C
    call; same contract as the numpy backend."""
    from repro.kernels.common import COST_EPS

    library = load_library()
    n = dist.shape[0]
    dist = np.ascontiguousarray(dist, dtype=np.int32)
    num_start = -1 if start is None else len(start)
    # One int64 buffer: the forced rows, the candidates, the frontier
    # columns, the current and start rows, then room for the reply's rows.
    # (Empty sequences convert to float64, hence the unsafe cast.)
    ints = np.concatenate(
        (forced, candidates, frontier_columns, current, start or (), candidates),
        dtype=np.int64,
        casting="unsafe",
    )
    limits = np.ascontiguousarray(frontier_limits, dtype=np.float64)
    costs = np.empty(2)
    found = library.repro_sum_reply(
        _address(dist), n, _address(ints), len(forced), len(candidates),
        len(frontier_columns), len(current), num_start, _address(limits),
        alpha, beta, COST_EPS, start_cost,
        -1 if max_iterations is None else max_iterations, _address(costs),
    )
    if found == -2:
        raise MemoryError("native sum_reply: cannot allocate its scratch")
    current_cost, cost = costs.tolist()
    if found < 0:
        return current_cost, cost, None
    end = len(ints) - len(candidates) + found
    return current_cost, cost, tuple(ints[end - found:end].tolist())
