"""Overhead gate for the telemetry layer.

Writes ``BENCH_obs.json`` under ``benchmarks/out/``.

Two properties make ``--telemetry`` safe to leave reachable in production
code paths, and this harness pins both with numbers:

* **The no-op recorder is free.**  With telemetry off, every instrumented
  site costs one attribute lookup plus a no-op span call.  The enabled run
  tells us exactly how many span/event records a smoke engine run emits
  (``span_count``); micro-timing the null-tracer call bounds the total
  no-op tax at ``span_count x null_call_s``, which must stay under 5% of
  the untraced wall clock.  Raw on/off wall clocks are recorded as context
  (tracing *on* is allowed to cost more — that is the point of the flag).

* **Tracing never changes results.**  The smoke sweep runs once with
  telemetry off and once with it on; after stripping the wall-clock-only
  ``TIMING_FIELDS``, the rows must be bit-identical.
"""

from __future__ import annotations

import time
import timeit

from repro.experiments.runner import RunSpec, run_spec_on_instance
from repro.graphs.generators import random_owned_tree
from repro.obs import NULL_TRACER, Telemetry, set_telemetry
from repro.service.api import ServiceConfig, run_spec_sweep
from repro.service.tasks import strip_timing_fields


OVERHEAD_BUDGET = 0.05

#: Small engine run for the overhead micro-benchmark.
ENGINE_SPEC = RunSpec(family="tree", n=60, alpha=2.0, k=2, seed=7, solver="greedy")

#: Smoke sweep for the bit-identity leg.
SWEEP_SPECS = [
    RunSpec(family="tree", n=24, alpha=alpha, k=2, seed=seed, solver="greedy")
    for alpha in (0.5, 2.0)
    for seed in range(2)
]


def _run_engine(owned, telemetry) -> None:
    """One run of the smoke spec with ``telemetry`` installed (``None``: default)."""
    previous = set_telemetry(telemetry)
    try:
        run_spec_on_instance(ENGINE_SPEC, owned)
    finally:
        set_telemetry(previous)


def _time_engine_run(owned, telemetry, repeats: int = 3) -> float:
    """Best wall clock over ``repeats`` runs of the smoke spec."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        _run_engine(owned, telemetry)
        best = min(best, time.perf_counter() - start)
    return best


def _null_call_cost_s() -> float:
    """Seconds per ``NULL_TRACER.span(...)`` call (the telemetry-off cost)."""
    loops = 200_000
    span = NULL_TRACER.span

    def body():
        with span("engine.best_response", player=3):
            pass

    return min(timeit.repeat(body, repeat=5, number=loops)) / loops


def _run_benchmark() -> dict:
    owned = random_owned_tree(ENGINE_SPEC.n, seed=ENGINE_SPEC.seed)

    # Leg 1: how many instrumented sites does the smoke run actually hit?
    traced_handle = Telemetry(tracing=True)
    _run_engine(owned, traced_handle)
    span_count = len(traced_handle.drain_events())

    # Leg 2: bound the no-op tax analytically — site count x null-call cost
    # against the untraced wall clock.  Raw on/off clocks as context.
    t_off = _time_engine_run(owned, telemetry=None)
    t_on = _time_engine_run(owned, telemetry=Telemetry(tracing=True))
    null_call_s = _null_call_cost_s()
    noop_overhead = (span_count * null_call_s) / t_off

    # Leg 3: telemetry-on rows bit-identical to telemetry-off rows.
    rows_off = [
        r.as_row()
        for r in run_spec_sweep(SWEEP_SPECS, ServiceConfig(in_process=True))
    ]
    rows_on = [
        r.as_row()
        for r in run_spec_sweep(
            SWEEP_SPECS, ServiceConfig(in_process=True, telemetry=True)
        )
    ]
    rows_identical = strip_timing_fields(rows_on) == strip_timing_fields(rows_off)

    return {
        "benchmark": "telemetry overhead and identity gates",
        "engine_spec": {"family": "tree", "n": ENGINE_SPEC.n, "alpha": ENGINE_SPEC.alpha},
        "span_count": span_count,
        "null_call_ns": round(null_call_s * 1e9, 1),
        "engine_off_s": round(t_off, 5),
        "engine_on_s": round(t_on, 5),
        "noop_overhead_fraction": round(noop_overhead, 5),
        "overhead_budget": OVERHEAD_BUDGET,
        "sweep_tasks": len(SWEEP_SPECS),
        "rows_identical": rows_identical,
    }


def test_bench_obs(benchmark, emit_report):
    report = benchmark.pedantic(_run_benchmark, rounds=1, iterations=1)
    emit_report(report, "BENCH_obs")
    # The traced smoke run really hit the instrumented sites.
    assert report["span_count"] > 0
    # No-op recorder tax: well under the 5% budget on the small engine run.
    assert report["noop_overhead_fraction"] < report["overhead_budget"]
    # Telemetry on or off, the sweep rows are bit-identical.
    assert report["rows_identical"]
