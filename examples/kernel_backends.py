#!/usr/bin/env python3
"""Kernel backends: pick the machinery, keep the bits.

The hot loops of every experiment — the batched BFS level expansion, its
fused statistics fold, the one-player ``view`` (a player's visible nodes,
their distances and the CSR of her view without her: how the engine
settles every view), the set-cover branch-and-bound search, the
MaxNCG best-response loop that runs that search once per eccentricity
guess (``max_reply``, one C call per reply on native), and the SumNCG
reply (``sum_reply``: the pruned exact enumeration or one hill climb,
one C call each on native) — run on pluggable
backends (:mod:`repro.kernels`): the ``native`` C/ctypes backend, compiled once
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
5. settles every player's radius-``k`` view with the ``view`` kernel on
   each backend, identical arrays asserted,
6. shows the selection chain: explicit argument > ``use_backend`` scope
   > ``REPRO_KERNEL_BACKEND`` > auto-detect, with silent numpy fallback
   for unavailable backends.

Run with::

    python examples/kernel_backends.py [n] [alpha] [k]
"""

from __future__ import annotations

import sys
import time

import numpy as np

from repro import MaxNCG, StrategyProfile, best_response_dynamics, random_owned_tree
from repro.graphs.generators.smallworld import owned_barabasi_albert
from repro.engine.state import NetworkState
from repro.graphs.traversal import batched_bfs_distances, reduce_bfs_distances
from repro.kernels import (
    available_backends,
    registered_backends,
    resolve_backend,
    use_backend,
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
    # The view kernel: every player's view, as the engine settles it.
    # ------------------------------------------------------------------
    state = NetworkState.from_profile(
        StrategyProfile.from_owned_graph(random_owned_tree(big, seed=0))
    )
    view_csr = state.csr()
    print(f"\nview kernel, all {big} radius-{k} views of a random tree:")
    views = {}
    for name in names:
        start = time.perf_counter()
        view = resolve_backend(name).view
        views[name] = [view(*view_csr, p, k) for p in range(big)]
        print(f"  {name:>6}: {time.perf_counter() - start:7.4f} s")
    assert all(
        all(
            np.array_equal(a, b)
            for got, want in zip(views[names[0]], views[name])
            for a, b in zip(got, want)
        )
        for name in names
    )
    print("  -> identical nodes/distances/sub-CSR arrays")

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


if __name__ == "__main__":
    args = sys.argv[1:4]
    main(
        n=int(args[0]) if len(args) > 0 else 32,
        alpha=float(args[1]) if len(args) > 1 else 0.5,
        k=int(args[2]) if len(args) > 2 else 2,
    )
