#!/usr/bin/env python3
"""Kernel backends: pick the machinery, keep the bits.

The two hot loops of every experiment — the batched BFS level expansion
and the set-cover branch-and-bound search — run on pluggable backends
(:mod:`repro.kernels`): the ``native`` C/ctypes backend, compiled once
per host with the system compiler and auto-selected wherever that works,
and the always-available ``numpy`` reference it falls back to.  Both
are **bit-identical**; the backend is a speed knob, never a
semantics knob.  This example

1. lists which backends are registered vs actually available here,
2. runs the same best-response dynamics once per available backend and
   shows the trajectories coincide exactly,
3. times the batched BFS on each backend on one larger instance,
4. times the *fused* ``bfs_reduce`` (per-source eccentricity / distance
   sum / unreached / view size, no distance matrix) against
   materialise-then-fold, identical vectors asserted,
5. shows the selection chain: explicit argument > ``use_backend`` scope
   > ``REPRO_KERNEL_BACKEND`` > auto-detect, with silent numpy fallback
   for unavailable backends — and the ``threads`` knob
   (``use_threads`` / ``REPRO_KERNEL_THREADS``), whose results are
   bit-identical to single-threaded.

Run with::

    python examples/kernel_backends.py [n] [alpha] [k]
"""

from __future__ import annotations

import sys
import time

import numpy as np

from repro import MaxNCG, best_response_dynamics, random_owned_tree
from repro.graphs.generators.smallworld import owned_barabasi_albert
from repro.graphs.traversal import batched_bfs_distances, reduce_bfs_distances
from repro.kernels import (
    available_backends,
    registered_backends,
    resolve_backend,
    use_backend,
    use_threads,
)


def main(n: int = 32, alpha: float = 0.5, k: int = 2) -> None:
    names = available_backends()
    print(f"registered backends: {', '.join(registered_backends())}")
    print(f"available here:      {', '.join(names)}")
    print(f"auto-detected:       {resolve_backend(None).name}")

    # ------------------------------------------------------------------
    # Same dynamics, every backend: identical trajectories.
    # ------------------------------------------------------------------
    game = MaxNCG(alpha=alpha, k=k)
    print(f"\nDynamics on a random {n}-player tree, {game.label()}:")
    fingerprints = {}
    for name in names:
        result = best_response_dynamics(
            random_owned_tree(n, seed=0), game, kernel_backend=name
        )
        fingerprints[name] = (
            result.final_profile.canonical_key(),
            result.rounds,
            result.total_changes,
        )
        print(
            f"  {name:>6}: converged={result.converged} "
            f"rounds={result.rounds} changes={result.total_changes} "
            f"social cost={result.final_metrics.social_cost:.1f}"
        )
    reference = fingerprints[names[0]]
    assert all(fp == reference for fp in fingerprints.values())
    print("  -> identical final networks, bit for bit")

    # ------------------------------------------------------------------
    # The BFS kernel alone, on something big enough to feel.
    # ------------------------------------------------------------------
    big = 2000
    indptr, indices, _ = owned_barabasi_albert(big, 2, seed=0).graph.to_csr_arrays()
    sources = np.arange(256, dtype=np.int64)
    print(f"\nBatched BFS, {len(sources)} sources on a {big}-node graph:")
    matrices = {}
    for name in names:
        batched_bfs_distances(indptr, indices, sources[:2], backend=name)  # warm up
        start = time.perf_counter()
        matrices[name] = batched_bfs_distances(indptr, indices, sources, backend=name)
        print(f"  {name:>6}: {time.perf_counter() - start:7.4f} s")
    assert all(
        np.array_equal(matrices[names[0]], matrices[name]) for name in names
    )
    print("  -> identical distance matrices")

    # ------------------------------------------------------------------
    # The fused reduction: the metrics sweep without the matrix.
    # ------------------------------------------------------------------
    print(f"\nFused bfs_reduce, same {len(sources)} sources (view radius {k}):")
    reductions = {}
    for name in names:
        reduce_bfs_distances(indptr, indices, sources[:2], view_radius=k, backend=name)
        start = time.perf_counter()
        reductions[name] = reduce_bfs_distances(
            indptr, indices, sources, view_radius=k, backend=name
        )
        print(f"  {name:>6}: {time.perf_counter() - start:7.4f} s")
    assert all(
        all(np.array_equal(a, b) for a, b in zip(reductions[names[0]], reductions[name]))
        for name in names
    )
    print("  -> identical eccentricity/sum/unreached/view-size vectors")

    # ------------------------------------------------------------------
    # Selection chain.
    # ------------------------------------------------------------------
    print("\nSelection:")
    with use_backend("numpy"):
        print(f"  inside use_backend('numpy'):       {resolve_backend(None).name}")
        print(f"  explicit argument still outranks:  {resolve_backend(names[-1]).name}")
    print(f"  after the scope:                   {resolve_backend(None).name}")
    # Without a C compiler native is registered but unavailable, and
    # resolving it falls back to numpy silently — compiled speed never
    # becomes a hard dependency.
    print(f"  resolve_backend('native') here:    {resolve_backend('native').name}")
    # The threads knob parallelises the native kernels over sources;
    # results stay bit-identical, so it is safe to flip anywhere.
    with use_threads(4):
        threaded = resolve_backend(names[-1])
        print(f"  inside use_threads(4):             {threaded.name} "
              f"(threads={threaded.threads})")
        four = reduce_bfs_distances(
            indptr, indices, sources, view_radius=k, backend=threaded
        )
        assert all(np.array_equal(a, b) for a, b in zip(reductions[names[-1]], four))
        print("  -> threaded reduction identical to single-threaded")


if __name__ == "__main__":
    args = sys.argv[1:4]
    main(
        n=int(args[0]) if len(args) > 0 else 32,
        alpha=float(args[1]) if len(args) > 1 else 0.5,
        k=int(args[2]) if len(args) > 2 else 2,
    )
