"""Compiled kernel backends vs the numpy reference, bit-identity asserted.

Writes ``BENCH_kernels.json`` under ``benchmarks/out/`` with four sections:

* **bfs** — the batched CSR BFS at ``n = 5000`` (Barabási–Albert, the same
  family as the scaling smoke): numpy level expansion vs the best available
  compiled backend, ``np.array_equal`` on the full distance matrices
  (unbounded and radius-truncated), compiled speedup asserted ≥ 5×.
* **bfs_reduce** — the fused metrics sweep at ``n = 5000``: per-source
  eccentricity / distance-sum / unreached / view-size vectors straight from
  the kernel vs materialising the distance rows with the *same* compiled
  ``bfs`` kernel and folding them in numpy, fused speedup asserted ≥ 2×;
  all four vectors asserted equal to the numpy reference's fused output.
  A high-diameter case rides along with no gate of its own: the same sweep
  on a uniform random tree of ``n = 5000`` (diameter in the hundreds, where
  the batches' locality order and frontier lists matter), fused seconds
  next to the numpy reference's, identity asserted.
* **cover** — solver-bound branch-and-bound set-cover instances: identical
  selections asserted, compiled speedup ≥ 2×.
* **dynamics** — one full best-response dynamics run per backend on a
  local-knowledge instance, trajectories asserted identical end to end
  (final profile, rounds, changes, metrics).

Skips when no compiled backend is available (no C toolchain); the
equivalence suites in ``tests/`` still cover the numpy
path everywhere.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.core.dynamics import best_response_dynamics
from repro.core.games import MaxNCG
from repro.graphs.generators.erdos_renyi import owned_connected_gnp_graph
from repro.graphs.generators.smallworld import owned_barabasi_albert
from repro.graphs.generators.trees import random_owned_tree
from repro.graphs.traversal import (
    batched_bfs_distances,
    reduce_bfs_distances,
)
from repro.kernels import available_backends, get_backend
from repro.kernels.common import UNREACHABLE
from repro.solvers.set_cover import SetCoverInstance, branch_and_bound_set_cover


BFS_N = 5000
BFS_SOURCES = 1024
BFS_RADII = (None, 3)
REDUCE_VIEW_RADIUS = 3

COVER_INSTANCES = 12
COVER_CANDIDATES = 22
COVER_ELEMENTS = 36
COVER_DENSITY = 0.25
COVER_SEED = 7

DYNAMICS_SPECS = [
    ("gnp48-k3-a2", lambda: owned_connected_gnp_graph(48, 0.08, seed=7), MaxNCG(2.0, k=3)),
    ("tree-like gnp64-k2-a1", lambda: owned_connected_gnp_graph(64, 0.05, seed=3), MaxNCG(1.0, k=2)),
]


def _compiled_backend():
    """The best available compiled backend, or ``None``."""
    for name in available_backends():
        backend = get_backend(name)
        if backend.compiled:
            return backend
    return None


def _bench_bfs(compiled) -> dict:
    owned = owned_barabasi_albert(BFS_N, 2, seed=0)
    indptr, indices, _ = owned.graph.to_csr_arrays()
    sources = np.arange(BFS_SOURCES, dtype=np.int64)
    # Warm both paths outside the timed window (JIT compilation / .so load).
    warm = sources[:2]
    batched_bfs_distances(indptr, indices, warm, backend="numpy")
    batched_bfs_distances(indptr, indices, warm, backend=compiled)

    rows = []
    numpy_total = compiled_total = 0.0
    identical = True
    for radius in BFS_RADII:
        start = time.perf_counter()
        reference = batched_bfs_distances(
            indptr, indices, sources, radius=radius, backend="numpy"
        )
        numpy_s = time.perf_counter() - start
        start = time.perf_counter()
        candidate = batched_bfs_distances(
            indptr, indices, sources, radius=radius, backend=compiled
        )
        compiled_s = time.perf_counter() - start
        same = bool(np.array_equal(reference, candidate))
        identical = identical and same
        numpy_total += numpy_s
        compiled_total += compiled_s
        rows.append(
            {
                "radius": radius,
                "numpy_s": round(numpy_s, 4),
                "compiled_s": round(compiled_s, 4),
                "speedup": round(numpy_s / compiled_s, 2),
                "identical_distances": same,
            }
        )
    return {
        "family": "barabasi-albert(m=2)",
        "n": BFS_N,
        "sources": BFS_SOURCES,
        "radii": rows,
        "numpy_s": round(numpy_total, 4),
        "compiled_s": round(compiled_total, 4),
        "speedup": round(numpy_total / compiled_total, 2),
        "identical_distances": identical,
    }


def _materialise_then_fold(indptr, indices, sources, view_radius, backend):
    """The pre-fused architecture: distance rows from ``backend``'s ``bfs``
    kernel, folded in numpy into the four ``bfs_reduce`` vectors."""
    dist = batched_bfs_distances(indptr, indices, sources, backend=backend)
    reachable = dist != UNREACHABLE
    finite = np.where(reachable, dist, 0)
    return (
        finite.max(axis=1, initial=0).astype(np.int64),
        finite.sum(axis=1, dtype=np.int64),
        (~reachable).sum(axis=1).astype(np.int64),
        (dist <= view_radius).sum(axis=1).astype(np.int64),
    )


def _bench_bfs_reduce(compiled) -> dict:
    """Fused metrics sweep vs materialise-then-fold on the same backend."""
    owned = owned_barabasi_albert(BFS_N, 2, seed=0)
    indptr, indices, _ = owned.graph.to_csr_arrays()
    sources = np.arange(BFS_SOURCES, dtype=np.int64)
    view_radius = REDUCE_VIEW_RADIUS
    # Warm the .so load outside the timed window.
    warm = sources[:2]
    reduce_bfs_distances(indptr, indices, warm, view_radius=view_radius, backend=compiled)
    _materialise_then_fold(indptr, indices, warm, view_radius, compiled)

    start = time.perf_counter()
    fused = reduce_bfs_distances(
        indptr, indices, sources, view_radius=view_radius, backend=compiled
    )
    fused_s = time.perf_counter() - start
    start = time.perf_counter()
    # Backend held constant, so the measurement isolates the fusion itself.
    folded = _materialise_then_fold(indptr, indices, sources, view_radius, compiled)
    folded_s = time.perf_counter() - start
    reference = reduce_bfs_distances(
        indptr, indices, sources, view_radius=view_radius, backend="numpy"
    )
    identical_fold = all(np.array_equal(f, m) for f, m in zip(fused, folded))
    identical_reference = all(np.array_equal(f, r) for f, r in zip(fused, reference))
    tree = random_owned_tree(BFS_N, seed=0).graph
    indptr, indices, _ = tree.to_csr_arrays()
    start = time.perf_counter()
    tree_fused = reduce_bfs_distances(
        indptr, indices, sources, view_radius=view_radius, backend=compiled
    )
    tree_fused_s = time.perf_counter() - start
    start = time.perf_counter()
    tree_reference = reduce_bfs_distances(
        indptr, indices, sources, view_radius=view_radius, backend="numpy"
    )
    tree_reference_s = time.perf_counter() - start
    return {
        "family": "barabasi-albert(m=2)",
        "n": BFS_N,
        "sources": BFS_SOURCES,
        "view_radius": view_radius,
        "fused_s": round(fused_s, 4),
        "materialise_then_fold_s": round(folded_s, 4),
        "speedup": round(folded_s / fused_s, 2),
        "identical_to_fold": identical_fold,
        "identical_to_numpy_reference": identical_reference,
        "high_diameter": {
            "family": "random tree",
            "n": BFS_N,
            "sources": BFS_SOURCES,
            "max_eccentricity": int(tree_fused[0].max()),
            "fused_s": round(tree_fused_s, 4),
            "numpy_reference_s": round(tree_reference_s, 4),
            "speedup": round(tree_reference_s / tree_fused_s, 2),
            "identical_to_numpy_reference": all(
                np.array_equal(f, r) for f, r in zip(tree_fused, tree_reference)
            ),
        },
    }


def _cover_instances() -> list[SetCoverInstance]:
    """Random solver-bound instances: dense enough to be feasible, sparse
    enough that the greedy incumbent leaves real search to the recursion."""
    rng = np.random.default_rng(COVER_SEED)
    instances = []
    while len(instances) < COVER_INSTANCES:
        coverage = rng.random((COVER_CANDIDATES, COVER_ELEMENTS)) < COVER_DENSITY
        if coverage.any(axis=0).all():  # feasible only
            instances.append(SetCoverInstance(coverage=coverage))
    return instances


def _bench_cover(compiled) -> dict:
    instances = _cover_instances()
    # Warm the compiled path (JIT / library load) on a tiny instance.
    tiny = SetCoverInstance(coverage=np.ones((2, 2), dtype=bool))
    branch_and_bound_set_cover(tiny, backend=compiled)

    start = time.perf_counter()
    reference = [
        branch_and_bound_set_cover(inst, backend="numpy") for inst in instances
    ]
    numpy_s = time.perf_counter() - start
    start = time.perf_counter()
    candidate = [
        branch_and_bound_set_cover(inst, backend=compiled) for inst in instances
    ]
    compiled_s = time.perf_counter() - start
    identical = all(
        r.selected == c.selected and r.objective == c.objective
        for r, c in zip(reference, candidate)
    )
    return {
        "instances": COVER_INSTANCES,
        "candidates": COVER_CANDIDATES,
        "elements": COVER_ELEMENTS,
        "density": COVER_DENSITY,
        "numpy_s": round(numpy_s, 4),
        "compiled_s": round(compiled_s, 4),
        "speedup": round(numpy_s / compiled_s, 2),
        "identical_selections": identical,
    }


def _trajectory_fingerprint(result) -> dict:
    return {
        "final_profile": result.final_profile.canonical_key(),
        "rounds": result.rounds,
        "total_changes": result.total_changes,
        "converged": result.converged,
        "cycled": result.cycled,
        "final_metrics": result.final_metrics.as_dict(),
    }


def _bench_dynamics(compiled) -> dict:
    rows = []
    identical = True
    for label, make_owned, game in DYNAMICS_SPECS:
        fingerprint = _trajectory_fingerprint(
            best_response_dynamics(make_owned(), game, kernel_backend="numpy")
        )
        candidate = best_response_dynamics(
            make_owned(), game, kernel_backend=compiled.name
        )
        same = _trajectory_fingerprint(candidate) == fingerprint
        identical = identical and same
        rows.append(
            {
                "instance": label,
                "rounds": fingerprint["rounds"],
                "total_changes": fingerprint["total_changes"],
                "identical_trajectories": same,
            }
        )
    return {"instances": rows, "identical_trajectories": identical}


def test_bench_kernels(benchmark, emit_report):
    compiled = _compiled_backend()
    if compiled is None:
        pytest.skip("no compiled kernel backend available (no C compiler)")

    def _run() -> dict:
        return {
            "benchmark": "compiled kernel backends vs numpy reference",
            "compiled_backend": compiled.name,
            "available_backends": list(available_backends()),
            "bfs": _bench_bfs(compiled),
            "bfs_reduce": _bench_bfs_reduce(compiled),
            "cover": _bench_cover(compiled),
            "dynamics": _bench_dynamics(compiled),
        }

    report = benchmark.pedantic(_run, rounds=1, iterations=1)
    emit_report(report, "BENCH_kernels")
    # Bit-identity is the contract: same distances, same reductions, same
    # selections, same full trajectories — the compiled backends are pure
    # speed knobs.
    assert report["bfs"]["identical_distances"]
    assert report["bfs_reduce"]["identical_to_fold"]
    assert report["bfs_reduce"]["identical_to_numpy_reference"]
    assert report["bfs_reduce"]["high_diameter"]["identical_to_numpy_reference"]
    assert report["cover"]["identical_selections"]
    assert report["dynamics"]["identical_trajectories"]
    # The acceptance gates.
    assert report["bfs"]["speedup"] >= 5.0
    assert report["bfs_reduce"]["speedup"] >= 2.0
    assert report["cover"]["speedup"] >= 2.0
