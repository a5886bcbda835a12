"""The telemetry handle is process state, read by each component when built.

No component takes a handle parameter.  The engine and its view cache read
:func:`repro.obs.get_telemetry` once, at construction, and keep that handle
for their lifetime; the kernel dispatch wrappers read it on every call.
Whatever the handle, metrics land in the process-wide default registry.
"""

from collections import Counter

import pytest

from repro.core.dynamics import best_response_dynamics
from repro.core.games import MaxNCG
from repro.engine.core import DynamicsEngine
from repro.experiments.runner import RunSpec, run_spec_on_instance
from repro.graphs.generators import random_owned_tree
from repro.obs import Telemetry, default_registry, get_telemetry, set_telemetry

GAME = MaxNCG(0.5, k=2)


@pytest.fixture()
def owned():
    return random_owned_tree(14, seed=3)


def _installed(handle: Telemetry, build):
    """``build()`` with ``handle`` installed process-wide, then the previous one."""
    previous = set_telemetry(handle)
    try:
        return build()
    finally:
        set_telemetry(previous)


def _span_names(handle: Telemetry) -> Counter:
    return Counter(event["name"] for event in handle.drain_events())


def _families(names: Counter) -> set[str]:
    return {name.split(".")[0] for name in names}


def test_engine_keeps_the_handle_it_was_built_with(owned):
    handle = Telemetry(tracing=True)
    engine = _installed(handle, lambda: DynamicsEngine(owned, GAME, max_rounds=20))
    assert get_telemetry() is not handle
    engine.run()
    names = _span_names(handle)
    assert names["engine.run"] == 1
    assert names["engine.round"] >= 1
    assert names["views.refresh_dirty"] >= 1
    assert names["engine.best_response"] >= owned.graph.number_of_nodes()


def test_engine_built_before_a_scope_records_no_engine_spans(owned):
    engine = DynamicsEngine(owned, GAME, max_rounds=20)
    handle = Telemetry(tracing=True)
    _installed(handle, engine.run)
    assert _families(_span_names(handle)) <= {"kernels"}


def test_kernel_dispatch_reads_the_handle_on_every_call(owned):
    engine = DynamicsEngine(owned, GAME, max_rounds=20)
    handle = Telemetry(tracing=True)
    _installed(handle, engine.run)
    names = _span_names(handle)
    assert names["kernels.bfs"] >= 1
    assert names["kernels.max_reply"] >= 1


def test_best_response_dynamics_traces_into_the_installed_handle(owned):
    untraced = best_response_dynamics(owned, GAME, max_rounds=20)
    handle = Telemetry(tracing=True)
    traced = _installed(
        handle, lambda: best_response_dynamics(owned, GAME, max_rounds=20)
    )
    assert _span_names(handle)["engine.run"] == 1
    final = traced.final_profile.canonical_key()
    assert final == untraced.final_profile.canonical_key()
    assert (traced.rounds, traced.total_changes) == (
        untraced.rounds,
        untraced.total_changes,
    )


def test_run_spec_on_instance_traces_into_the_installed_handle(owned):
    spec = RunSpec(family="tree", n=14, alpha=0.5, k=2, seed=3, solver="greedy")
    handle = Telemetry(tracing=True)
    _installed(handle, lambda: run_spec_on_instance(spec, owned))
    names = _span_names(handle)
    assert names["engine.run"] == 1
    assert names["engine.best_response"] >= 1


def test_every_handle_records_into_the_default_registry(owned):
    handle = Telemetry(tracing=True)
    assert handle.registry is default_registry()
    assert Telemetry().registry is default_registry()
    key = 'repro_engine_responses_total{result="computed"}'
    before = default_registry().snapshot().get(key, 0)
    _installed(handle, lambda: DynamicsEngine(owned, GAME, max_rounds=20).run())
    assert default_registry().snapshot()[key] > before
