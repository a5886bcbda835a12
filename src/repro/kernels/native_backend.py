"""Native C kernel backend — the auto-detected default.

The C sources below are compiled once per host with the platform's C
compiler (``cc``/``gcc``, ``-O2 -shared -fPIC -pthread``; ``$CC``
overrides) into a shared object cached under ``~/.cache/repro-kernels/``
(override with ``REPRO_KERNEL_CACHE``), keyed by a hash of the source text
and flags so edits invalidate stale builds, and loaded through
:mod:`ctypes` — no build-time dependency, no extension-module packaging,
works from a plain source checkout.  A cold first resolve (the compile)
costs about 0.2 s; every later process on the host only loads the cached
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
``tests/solvers/test_set_cover.py``).  The fused ``bfs_reduce`` kernel is
free to traverse in a different *order* — it is an MS-BFS, advancing 64
sources per uint64-bitmask batch through one level-synchronous sweep —
because its outputs are order-independent aggregates of the unique BFS
distance function; the same parity suites pin its bit-identity.

The ``threads`` knob splits the sources into contiguous slabs run on
threads created for each call and joined before it returns.  No thread
pool outlives a call, so the fork-based worker pools of the sweep
service stay safe to start after a threaded kernel has run.

This module doubles as the template for binding further compiled
backends (Cython, Rust over cffi): implement ``bfs`` / ``cover_search``
with the contracts documented in :mod:`repro.kernels`, raise
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
    "make_bfs",
    "make_bfs_reduce",
]

_SOURCE = r"""
#include <pthread.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* Runs slab(args, t) for t = 0 .. num_threads - 1: slab 0 on the
 * calling thread, the others on threads created for this call and
 * joined before it returns.  No thread outlives a call, so a process
 * forked between calls (the sweep service's worker pools) inherits no
 * thread pool — a forked child of an OpenMP program deadlocks at its
 * next parallel region.  A slab whose thread cannot be created runs on
 * the calling thread instead, so the result never depends on it.
 */
typedef void (*slab_fn)(const void *args, int64_t t);

typedef struct {
    slab_fn fn;
    const void *args;
    int64_t t;
} slab_call;

static void *slab_thread(void *call) {
    const slab_call *c = (const slab_call *)call;
    c->fn(c->args, c->t);
    return NULL;
}

static void run_slabs(slab_fn fn, const void *args, int64_t num_threads) {
    pthread_t *threads = NULL;
    slab_call *calls = NULL;
    unsigned char *started = NULL;
    if (num_threads > 1) {
        threads = malloc((size_t)num_threads * sizeof(pthread_t));
        calls = malloc((size_t)num_threads * sizeof(slab_call));
        started = calloc((size_t)num_threads, 1);
    }
    for (int64_t t = 1; t < num_threads; ++t) {
        if (threads && calls && started) {
            calls[t].fn = fn;
            calls[t].args = args;
            calls[t].t = t;
            started[t] = pthread_create(&threads[t], NULL, slab_thread,
                                        &calls[t]) == 0;
        }
        if (!(started && started[t]))
            fn(args, t);
    }
    fn(args, 0);
    for (int64_t t = 1; t < num_threads; ++t)
        if (started && started[t])
            pthread_join(threads[t], NULL);
    free(threads);
    free(calls);
    free(started);
}

/* Per-source queue BFS over a CSR adjacency layout, threaded over
 * contiguous source slabs.
 *
 * dist is a (num_sources, n) row-major int32 matrix pre-filled with the
 * unreachable sentinel; queues is a (num_threads, n) int32 scratch
 * buffer, one queue per slab.  radius < 0 means unbounded.  Each
 * source's row is written by exactly one slab, so the matrix is
 * bit-identical to the serial traversal (and to the numpy level
 * expansion — BFS distances are unique) however the slabs interleave.
 */
static void bfs_source_range(const int64_t *indptr, const int64_t *indices,
                             int64_t n, const int64_t *sources,
                             int64_t start, int64_t stop, int64_t radius,
                             int32_t unreachable, int32_t *dist,
                             int32_t *queue) {
    for (int64_t s = start; s < stop; ++s) {
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

typedef struct {
    const int64_t *indptr, *indices, *sources;
    int64_t n, num_sources, slab, radius;
    int32_t unreachable;
    int32_t *dist, *queues;
} bfs_args;

static void bfs_slab(const void *args, int64_t t) {
    const bfs_args *a = (const bfs_args *)args;
    int64_t start = t * a->slab;
    int64_t stop = start + a->slab < a->num_sources ? start + a->slab : a->num_sources;
    if (start < stop)
        bfs_source_range(a->indptr, a->indices, a->n, a->sources, start, stop,
                         a->radius, a->unreachable, a->dist, a->queues + t * a->n);
}

void repro_bfs_batch(const int64_t *indptr, const int64_t *indices,
                     int64_t n, const int64_t *sources, int64_t num_sources,
                     int64_t radius, int32_t unreachable,
                     int32_t *dist, int32_t *queues, int64_t num_threads) {
    if (num_threads < 1)
        num_threads = 1;
    bfs_args args = {indptr, indices, sources, n, num_sources,
                     (num_sources + num_threads - 1) / num_threads, radius,
                     unreachable, dist, queues};
    run_slabs(bfs_slab, &args, num_threads);
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
 * scratch is a (num_threads, 3 * n) uint64 buffer; each slab uses its
 * three n-word sections as the current frontier, next frontier and
 * visited bitmasks.  radius < 0 means unbounded (nodes beyond a
 * non-negative radius count as unreached); view_radius < 0 means "no
 * view counting" (view sizes report 0).
 */
static void bfs_reduce_range(const int64_t *indptr, const int64_t *indices,
                             int64_t n, const int64_t *sources,
                             int64_t start, int64_t stop, int64_t radius,
                             int64_t view_radius,
                             int64_t *ecc_out, int64_t *sum_out,
                             int64_t *unreached_out, int64_t *view_size_out,
                             uint64_t *cur, uint64_t *next, uint64_t *visited) {
    for (int64_t b = start; b < stop; b += 64) {
        int64_t batch = stop - b < 64 ? stop - b : 64;
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

typedef struct {
    const int64_t *indptr, *indices, *sources;
    int64_t n, num_sources, slab, radius, view_radius;
    int64_t *ecc_out, *sum_out, *unreached_out, *view_size_out;
    uint64_t *scratch;
} bfs_reduce_args;

static void bfs_reduce_slab(const void *args, int64_t t) {
    const bfs_reduce_args *a = (const bfs_reduce_args *)args;
    int64_t start = t * a->slab;
    int64_t stop = start + a->slab < a->num_sources ? start + a->slab : a->num_sources;
    uint64_t *section = a->scratch + t * 3 * a->n;
    if (start < stop)
        bfs_reduce_range(a->indptr, a->indices, a->n, a->sources, start, stop,
                         a->radius, a->view_radius, a->ecc_out, a->sum_out,
                         a->unreached_out, a->view_size_out,
                         section, section + a->n, section + 2 * a->n);
}

void repro_bfs_reduce(const int64_t *indptr, const int64_t *indices,
                      int64_t n, const int64_t *sources, int64_t num_sources,
                      int64_t radius, int64_t view_radius, int32_t unreachable,
                      int64_t *ecc_out, int64_t *sum_out,
                      int64_t *unreached_out, int64_t *view_size_out,
                      uint64_t *scratch, int64_t num_threads) {
    (void)unreachable;  /* kept in the ABI for contract symmetry with bfs */
    if (num_threads < 1)
        num_threads = 1;
    /* Slab boundaries aligned to the 64-source batch width so no batch
     * straddles two threads. */
    int64_t num_batches = (num_sources + 63) / 64;
    int64_t batches_per_thread = (num_batches + num_threads - 1) / num_threads;
    bfs_reduce_args args = {indptr, indices, sources, n, num_sources,
                            batches_per_thread * 64, radius, view_radius,
                            ecc_out, sum_out, unreached_out, view_size_out,
                            scratch};
    run_slabs(bfs_reduce_slab, &args, num_threads);
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
"""

_I64 = ctypes.POINTER(ctypes.c_int64)
_I32 = ctypes.POINTER(ctypes.c_int32)
_U8 = ctypes.POINTER(ctypes.c_uint8)
_U64 = ctypes.POINTER(ctypes.c_uint64)

#: Compiler flags of the one build; ``-pthread`` links the slab threads.
_FLAGS = ("-O2", "-shared", "-fPIC", "-pthread")

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
            command += ["-o", str(built), str(source)]
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
        _I64, _I64, ctypes.c_int64, _I64, ctypes.c_int64,
        ctypes.c_int64, ctypes.c_int32, _I32, _I32, ctypes.c_int64,
    ]
    library.repro_bfs_batch.restype = None
    library.repro_bfs_reduce.argtypes = [
        _I64, _I64, ctypes.c_int64, _I64, ctypes.c_int64,
        ctypes.c_int64, ctypes.c_int64, ctypes.c_int32,
        _I64, _I64, _I64, _I64, _U64, ctypes.c_int64,
    ]
    library.repro_bfs_reduce.restype = None
    library.repro_cover_search.argtypes = [
        _U8, ctypes.c_int64, ctypes.c_int64, _I64,
        ctypes.c_int64, _I32, _I32, _U8,
    ]
    library.repro_cover_search.restype = ctypes.c_int64
    _library = library
    return library


def _as_ptr(array: np.ndarray, pointer_type):
    return array.ctypes.data_as(pointer_type)


def _bfs_threaded(
    indptr: np.ndarray,
    indices: np.ndarray,
    sources: np.ndarray,
    radius: int | None,
    dist: np.ndarray,
    threads: int,
) -> np.ndarray:
    from repro.kernels.common import UNREACHABLE

    library = load_library()
    n = len(indptr) - 1
    threads = max(1, min(int(threads), max(int(sources.size), 1)))
    indptr = np.ascontiguousarray(indptr, dtype=np.int64)
    indices = np.ascontiguousarray(indices, dtype=np.int64)
    sources = np.ascontiguousarray(sources, dtype=np.int64)
    queues = np.empty(threads * max(n, 1), dtype=np.int32)
    library.repro_bfs_batch(
        _as_ptr(indptr, _I64),
        _as_ptr(indices, _I64),
        n,
        _as_ptr(sources, _I64),
        sources.size,
        -1 if radius is None else int(radius),
        UNREACHABLE,
        _as_ptr(dist, _I32),
        _as_ptr(queues, _I32),
        threads,
    )
    return dist


def _bfs_reduce_threaded(
    indptr: np.ndarray,
    indices: np.ndarray,
    sources: np.ndarray,
    radius: int | None,
    view_radius: int | None,
    ecc_out: np.ndarray,
    sum_out: np.ndarray,
    unreached_out: np.ndarray,
    view_size_out: np.ndarray,
    threads: int,
) -> None:
    from repro.kernels.common import UNREACHABLE

    library = load_library()
    n = len(indptr) - 1
    threads = max(1, min(int(threads), max(int(sources.size), 1)))
    indptr = np.ascontiguousarray(indptr, dtype=np.int64)
    indices = np.ascontiguousarray(indices, dtype=np.int64)
    sources = np.ascontiguousarray(sources, dtype=np.int64)
    scratch = np.empty(threads * 3 * max(n, 1), dtype=np.uint64)
    library.repro_bfs_reduce(
        _as_ptr(indptr, _I64),
        _as_ptr(indices, _I64),
        n,
        _as_ptr(sources, _I64),
        sources.size,
        -1 if radius is None else int(radius),
        -1 if view_radius is None else int(view_radius),
        UNREACHABLE,
        _as_ptr(ecc_out, _I64),
        _as_ptr(sum_out, _I64),
        _as_ptr(unreached_out, _I64),
        _as_ptr(view_size_out, _I64),
        _as_ptr(scratch, _U64),
        threads,
    )


def bfs(
    indptr: np.ndarray,
    indices: np.ndarray,
    sources: np.ndarray,
    radius: int | None,
    dist: np.ndarray,
) -> np.ndarray:
    """Per-source queue BFS in C; same contract as the numpy backend."""
    return _bfs_threaded(indptr, indices, sources, radius, dist, 1)


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
    _bfs_reduce_threaded(
        indptr, indices, sources, radius, view_radius,
        ecc_out, sum_out, unreached_out, view_size_out, 1,
    )


def make_bfs(threads: int):
    """Build the ``bfs`` kernel for ``threads`` (1 => the serial slab loop)."""
    if threads <= 1:
        return bfs

    def threaded_bfs(indptr, indices, sources, radius, dist):
        return _bfs_threaded(indptr, indices, sources, radius, dist, threads)

    return threaded_bfs


def make_bfs_reduce(threads: int):
    """Build the ``bfs_reduce`` kernel for ``threads`` (1 => the serial slab loop)."""
    if threads <= 1:
        return bfs_reduce

    def threaded_bfs_reduce(
        indptr,
        indices,
        sources,
        radius,
        view_radius,
        ecc_out,
        sum_out,
        unreached_out,
        view_size_out,
    ):
        _bfs_reduce_threaded(
            indptr, indices, sources, radius, view_radius,
            ecc_out, sum_out, unreached_out, view_size_out, threads,
        )

    return threaded_bfs_reduce


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
            _as_ptr(cover_bytes, _U8),
            num_free,
            num_elements,
            _as_ptr(order, _I64),
            int(best_size),
            _as_ptr(selection, _I32),
            _as_ptr(chosen, _I32),
            _as_ptr(remaining_stack, _U8),
        )
    )
    if found < 0:
        return best_size, best_selection
    return found, [int(idx) for idx in selection[:found]]
