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
search.  The fused ``bfs_reduce`` kernel is
free to traverse in a different *order* — it is an MS-BFS, advancing 64
sources per uint64-bitmask batch through one level-synchronous sweep —
because its outputs are order-independent aggregates of the unique BFS
distance function; the same parity suites pin its bit-identity.

The kernels run on the calling thread and start no threads, so the
fork-based worker pools of the sweep service stay safe to start after a
kernel has run.

This module doubles as the template for binding further compiled
backends (Cython, Rust over cffi): implement ``bfs`` / ``bfs_reduce`` /
``cover_search`` / ``max_reply`` with the contracts documented in
:mod:`repro.kernels`, raise
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
    "cover_search",
    "max_reply",
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

/* Fused multi-source BFS + statistics fold: eccentricity,
 * finite-distance sum, unreached count and radius-view_radius view
 * size, emitted straight from the traversal — no distance matrix.
 *
 * The traversal is an MS-BFS (Then et al., "The More the Merrier",
 * VLDB 2015): 64 sources advance together through one level-synchronous
 * sweep, their frontiers packed into one uint64 bitmask per node, so a
 * level costs O(m) word-ORs for the whole batch instead of one queue
 * traversal per source.  Per-source statistics fall out of the newly
 * set bits at each level.  The traversal *order* differs from the queue
 * BFS, but the outputs are order-independent aggregates of the (unique)
 * BFS distance function, so they stay bit-identical to the numpy
 * reference — pinned by the parity suites.
 *
 * scratch is a 3 * n uint64 buffer: the current frontier, next frontier
 * and visited bitmasks.  radius < 0 means unbounded (nodes beyond a
 * non-negative radius count as unreached); view_radius < 0 means "no
 * view counting" (view sizes report 0).
 */
void repro_bfs_reduce(const int64_t *indptr, const int64_t *indices,
                      int64_t n, const int64_t *sources, int64_t num_sources,
                      int64_t radius, int64_t view_radius,
                      int64_t *ecc_out, int64_t *sum_out,
                      int64_t *unreached_out, int64_t *view_size_out,
                      uint64_t *scratch) {
    uint64_t *cur = scratch, *next = scratch + n, *visited = scratch + 2 * n;
    for (int64_t b = 0; b < num_sources; b += 64) {
        int64_t batch = num_sources - b < 64 ? num_sources - b : 64;
        memset(cur, 0, (size_t)n * sizeof(uint64_t));
        memset(visited, 0, (size_t)n * sizeof(uint64_t));
        int64_t ecc[64], total[64], in_view[64], reached[64];
        for (int64_t i = 0; i < batch; ++i) {
            int64_t src = sources[b + i];
            cur[src] |= (uint64_t)1 << i;
            visited[src] |= (uint64_t)1 << i;
            ecc[i] = 0;
            total[i] = 0;
            reached[i] = 1;
            in_view[i] = view_radius >= 0 ? 1 : 0;
        }
        int64_t level = 0;
        int nonempty = 1;
        while (nonempty && (radius < 0 || level < radius)) {
            ++level;
            memset(next, 0, (size_t)n * sizeof(uint64_t));
            for (int64_t v = 0; v < n; ++v) {
                uint64_t w = cur[v];
                if (!w)
                    continue;
                int64_t estop = indptr[v + 1];
                for (int64_t e = indptr[v]; e < estop; ++e)
                    next[indices[e]] |= w;
            }
            int64_t cnt[64];
            memset(cnt, 0, sizeof(cnt));
            nonempty = 0;
            for (int64_t v = 0; v < n; ++v) {
                uint64_t fresh = next[v] & ~visited[v];
                cur[v] = fresh;
                if (!fresh)
                    continue;
                visited[v] |= fresh;
                nonempty = 1;
                do {
                    ++cnt[__builtin_ctzll(fresh)];
                    fresh &= fresh - 1;
                } while (fresh);
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
            ecc_out[b + i] = ecc[i];
            sum_out[b + i] = total[i];
            unreached_out[b + i] = n - reached[i];
            view_size_out[b + i] = in_view[i];
        }
    }
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
"""

#: Arrays cross into C as raw addresses (``array.ctypes.data``): a
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
    library.repro_cover_search.argtypes = [
        _PTR, _I64, _I64, _PTR, _I64, _PTR, _PTR, _PTR,
    ]
    library.repro_cover_search.restype = _I64
    library.repro_max_reply.argtypes = [
        _PTR, _I64, _PTR, _I64, ctypes.c_double, ctypes.c_double,
        ctypes.POINTER(ctypes.c_double), _I64, _ORDER_CALLBACK,
    ]
    library.repro_max_reply.restype = _I64
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
        indptr.ctypes.data,
        indices.ctypes.data,
        n,
        sources.ctypes.data,
        sources.size,
        -1 if radius is None else int(radius),
        UNREACHABLE,
        dist.ctypes.data,
        queue.ctypes.data,
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
    scratch = np.empty(3 * max(n, 1), dtype=np.uint64)
    library.repro_bfs_reduce(
        indptr.ctypes.data,
        indices.ctypes.data,
        n,
        sources.ctypes.data,
        sources.size,
        -1 if radius is None else int(radius),
        -1 if view_radius is None else int(view_radius),
        ecc_out.ctypes.data,
        sum_out.ctypes.data,
        unreached_out.ctypes.data,
        view_size_out.ctypes.data,
        scratch.ctypes.data,
    )


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
            cover_bytes.ctypes.data,
            num_free,
            num_elements,
            order.ctypes.data,
            int(best_size),
            selection.ctypes.data,
            chosen.ctypes.data,
            remaining_stack.ctypes.data,
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
        dist.ctypes.data, n, buffer.ctypes.data, num_forced, alpha, COST_EPS,
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
