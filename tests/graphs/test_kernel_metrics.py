"""The kernel-dispatch counters of :mod:`repro.graphs.traversal`.

``repro_kernel_calls_total`` and ``repro_kernel_sources_total`` are bound
once per (kernel, backend) pair.  A fixed engine run on a counting backend
must report exactly the dispatches that backend saw — calls and source
rows per kernel — and a repeat of the run must report the same counts
again.
"""

from __future__ import annotations

import collections
import dataclasses

import pytest

import repro.kernels as kernels
from repro.core.games import MaxNCG, SumNCG
from repro.core.metrics import compute_profile_metrics
from repro.engine.core import DynamicsEngine
from repro.graphs.generators.trees import random_owned_tree
from repro.kernels import get_backend, register_backend
from repro.obs.metrics import default_registry

COUNTED = ("bfs", "bfs_reduce")


@pytest.fixture
def counting_backend():
    """A numpy-backed backend that tallies every kernel call it serves."""
    factories = dict(kernels._FACTORIES)
    built = dict(kernels._BUILT)
    calls: collections.Counter = collections.Counter()
    sources: collections.Counter = collections.Counter()
    reference = get_backend("numpy")

    def tally(name, kernel):
        def counted(*args):
            calls[name] += 1
            sources[name] += len(args[2])
            return kernel(*args)

        return counted

    backend = dataclasses.replace(
        reference,
        name="counting",
        **{name: tally(name, getattr(reference, name)) for name in COUNTED},
    )
    register_backend("counting", lambda: backend)
    try:
        yield calls, sources
    finally:
        kernels._FACTORIES.clear()
        kernels._FACTORIES.update(factories)
        kernels._BUILT.clear()
        kernels._BUILT.update(built)


def registry_counts() -> dict[str, float]:
    snapshot = default_registry().snapshot()
    return {
        f"{family}:{name}": snapshot.get(
            f'repro_kernel_{family}_total{{kernel="{name}",backend="counting"}}', 0
        )
        for family in ("calls", "sources")
        for name in COUNTED
    }


def fixed_run() -> dict[str, float]:
    before = registry_counts()
    for game in (MaxNCG(0.5, k=2), SumNCG(0.5, k=2)):
        engine = DynamicsEngine(random_owned_tree(14, seed=3), game, kernel_backend="counting")
        engine.run()
        player = engine.base_order[0]
        engine.set_strategy(player, frozenset())
        engine.run()
    after = registry_counts()
    return {key: after[key] - before[key] for key in after}


def test_counters_match_the_dispatches_and_repeat(counting_backend):
    calls, sources = counting_backend
    first = fixed_run()
    for name in COUNTED:
        assert calls[name] > 0, name
        assert first[f"calls:{name}"] == calls[name]
        assert first[f"sources:{name}"] == sources[name]
    assert fixed_run() == first


def bfs_reduce_sources(backend: str) -> float:
    return default_registry().snapshot().get(
        f'repro_kernel_sources_total{{kernel="bfs_reduce",backend="{backend}"}}', 0
    )


@pytest.mark.parametrize("game", [MaxNCG(0.5, k=2), SumNCG(0.5, k=2)])
def test_run_from_an_equilibrium_sweeps_the_metrics_once(game):
    """A run that ends on the profile it started from reuses the opening
    metric sweep: one sweep of n sources, and final metrics equal to a
    fresh computation; a run that moves still sweeps twice."""
    n = 24
    engine = DynamicsEngine(random_owned_tree(n, seed=5), game)
    backend = engine.kernel_backend.name
    before = bfs_reduce_sources(backend)
    moved = engine.run()
    assert moved.total_changes > 0
    assert bfs_reduce_sources(backend) - before == 2 * n

    before = bfs_reduce_sources(backend)
    quiet = engine.run()
    assert quiet.converged and quiet.total_changes == 0
    assert bfs_reduce_sources(backend) - before == n
    assert quiet.final_metrics == compute_profile_metrics(quiet.final_profile, game)
    assert quiet.final_metrics == quiet.initial_metrics
