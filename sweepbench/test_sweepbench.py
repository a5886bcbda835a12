"""Fast checks of the benchmark harness itself; no timing is asserted."""

from __future__ import annotations

import importlib
import threading

import pytest

from harness.hostspeed import NOMINAL_S, normalised, reference_s
from harness.stats import percentile, summarize, verdict
from harness.tracing import BINDINGS, CLASS_METHODS, TIMING_BACKEND, SpanRecorder, instrument
from harness.workloads import row_digest, row_problems


def test_self_time_of_nested_spans_from_two_threads():
    recorder = SpanRecorder()
    both_open = threading.Barrier(2)

    def first():
        recorder.begin("outer", 0.0)
        both_open.wait()
        recorder.begin("inner", 1.0)
        recorder.end(3.0)
        recorder.begin("inner", 4.0)
        recorder.end(5.0)
        recorder.end(10.0)

    def second():
        recorder.begin("outer", 100.0)
        both_open.wait()
        recorder.begin("leaf", 101.0)
        recorder.begin("inner", 102.0)
        recorder.end(104.0)
        recorder.end(105.0)
        recorder.end(106.0)

    threads = [threading.Thread(target=first), threading.Thread(target=second)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=10)
        assert not thread.is_alive()
    # outer: (10 - 3) + (6 - 4); inner: 2 + 1 + 2; leaf: 4 - 2.
    assert recorder.self_s == {"outer": 9.0, "inner": 5.0, "leaf": 2.0}
    assert recorder.calls == {"outer": 2, "inner": 3, "leaf": 1}


def _patched_attributes():
    found = []
    for module_name, class_name, attribute, _ in CLASS_METHODS:
        owner = getattr(importlib.import_module(module_name), class_name)
        found.append((owner, attribute, owner.__dict__[attribute]))
    for module_name, attribute, _ in BINDINGS:
        owner = importlib.import_module(module_name)
        found.append((owner, attribute, owner.__dict__[attribute]))
    return found


def test_instrument_restores_every_patch_and_retires_its_backend():
    from repro.kernels import available_backends, resolve_backend

    originals = _patched_attributes()
    backend_before = resolve_backend().name
    with instrument(SpanRecorder()):
        assert resolve_backend().name == TIMING_BACKEND
        for owner, attribute, original in originals:
            assert owner.__dict__[attribute] is not original
    for owner, attribute, original in originals:
        assert owner.__dict__[attribute] is original
    assert resolve_backend().name == backend_before
    assert TIMING_BACKEND not in available_backends()


def test_traced_rows_equal_untraced_rows():
    from repro.experiments.runner import RunSpec
    from repro.service.api import ServiceConfig, run_spec_sweep

    specs = [
        RunSpec(family="tree", n=12, alpha=alpha, k=2, seed=seed)
        for seed in (0, 1)
        for alpha in (0.5, 2.0)
    ]
    config = ServiceConfig(workers=1, in_process=True)
    untraced = row_digest([result.as_row() for result in run_spec_sweep(specs, config)])
    recorder = SpanRecorder()
    with instrument(recorder):
        traced = row_digest([result.as_row() for result in run_spec_sweep(specs, config)])
    assert traced == untraced
    assert recorder.calls["service.execute"] == len(specs)
    assert recorder.calls["kernels.bfs"] > 0


def test_row_problems_flag_broken_certificates():
    assert row_problems([{"converged": True, "certified": True, "warm_equals_cold": True}]) == []
    assert row_problems([{"converged": True, "certified": False}])
    assert row_problems([{"outcome": "recovered", "converged": False}])
    assert row_problems([{"warm_equals_cold": False}])


def test_percentile_needs_ten_samples_beyond_it():
    assert percentile([float(v) for v in range(100)], 0.9) == pytest.approx(89.1)
    assert percentile([float(v) for v in range(99)], 0.9) is None
    assert percentile([float(v) for v in range(20)], 0.5) == pytest.approx(9.5)
    assert percentile([1.0] * 19, 0.5) is None
    assert percentile([], 0.5) is None


def test_normalised_time_cancels_the_host_speed():
    # The same work on a host at half speed: twice the wall time, twice the loop time.
    assert normalised(1.0, NOMINAL_S) == pytest.approx(1.0)
    assert normalised(2.0, 2 * NOMINAL_S) == pytest.approx(1.0)
    assert reference_s() > 0


def test_verdicts_against_a_baseline():
    lower = {"better": "lower", "bound": 0.1}
    higher = {"better": "higher", "bound": 0.1}
    baseline = summarize([1.0, 1.01, 0.99, 1.0, 1.02])
    assert verdict(lower, baseline, [1.2, 1.21, 1.19]) == "worse"
    assert verdict(lower, baseline, [0.8, 0.81, 0.79]) == "better"
    assert verdict(lower, baseline, [1.0, 1.01, 1.0]) == "same"
    assert verdict(lower, baseline, [0.7, 1.3, 1.0, 1.4]) == "unresolved"
    # A spread wider than the bound still resolves when every run is better.
    assert verdict(lower, baseline, [0.5, 0.8, 0.95]) == "better"
    assert verdict(higher, baseline, [1.2, 1.2, 1.2]) == "better"
    assert verdict(higher, baseline, [0.8, 0.8, 0.8]) == "worse"
