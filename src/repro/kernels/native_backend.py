"""Native C kernel backend — the auto-detected default.

The C sources below are compiled once per host with the platform's C
compiler (``cc``/``gcc``, ``-O2 -shared -fPIC``; ``$CC``
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

The kernels run on the calling thread and start no threads, so the
fork-based worker pools of the sweep service stay safe to start after a
kernel has run.

This module doubles as the template for binding further compiled
backends (Cython, Rust over cffi): implement ``bfs`` / ``bfs_reduce`` /
``cover_search`` with the contracts documented in :mod:`repro.kernels`, raise
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
]

_SOURCE = r"""
#include <stdint.h>
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
"""

_I64 = ctypes.POINTER(ctypes.c_int64)
_I32 = ctypes.POINTER(ctypes.c_int32)
_U8 = ctypes.POINTER(ctypes.c_uint8)
_U64 = ctypes.POINTER(ctypes.c_uint64)

#: Compiler flags of the one build.
_FLAGS = ("-O2", "-shared", "-fPIC")

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
        ctypes.c_int64, ctypes.c_int32, _I32, _I32,
    ]
    library.repro_bfs_batch.restype = None
    library.repro_bfs_reduce.argtypes = [
        _I64, _I64, ctypes.c_int64, _I64, ctypes.c_int64,
        ctypes.c_int64, ctypes.c_int64,
        _I64, _I64, _I64, _I64, _U64,
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
        _as_ptr(indptr, _I64),
        _as_ptr(indices, _I64),
        n,
        _as_ptr(sources, _I64),
        sources.size,
        -1 if radius is None else int(radius),
        UNREACHABLE,
        _as_ptr(dist, _I32),
        _as_ptr(queue, _I32),
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
        _as_ptr(indptr, _I64),
        _as_ptr(indices, _I64),
        n,
        _as_ptr(sources, _I64),
        sources.size,
        -1 if radius is None else int(radius),
        -1 if view_radius is None else int(view_radius),
        _as_ptr(ecc_out, _I64),
        _as_ptr(sum_out, _I64),
        _as_ptr(unreached_out, _I64),
        _as_ptr(view_size_out, _I64),
        _as_ptr(scratch, _U64),
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
