"""Timing harness for work-stealing dispatch vs static shards.

Writes ``BENCH_steal.json`` under ``benchmarks/out/``.

The scenario is the weighted planner's documented blind spot: estimated
group weight is ``instance nodes x task count``, which is blind to
*per-task* difficulty.  The straggler grid exploits that — two 300-node
``k=2`` greedy instances (huge weight, moderate runtime) next to eight
30-node full-knowledge branch-and-bound instances (tiny weight, comparable
runtime each).  The static planner parks both heavy-looking groups on their
own workers and piles all eight deceptively light groups behind the third;
the stealing pool drains that pile the moment the other workers go idle.

Because this container may be single-core, the makespan gate runs in
*virtual time*: per-task durations are measured serially, then replayed
through :func:`repro.service.tasks.simulate_dispatch` — the same
``AffinityTaskQueue`` the real pool drives, on a deterministic event clock.
The real forked stealing pool's wall clock is recorded as context, and its
rows must be bit-identical to the serial path's.

Acceptance figures:

* virtual-time makespan: stealing >= 1.5x over static shards, and
* the shared :class:`~repro.engine.views.ViewStore` reports > 0 cross-session
  view adoptions on an α-sweep over one instance.
"""

from __future__ import annotations

import heapq
import time

from repro.experiments.config import FULL_KNOWLEDGE_K
from repro.experiments.runner import RunSpec, run_single
from repro.service.api import ServiceConfig, orchestrate
from repro.service.tasks import (
    AffinityTaskQueue,
    compile_run_specs,
    decode_result,
    encode_result,
    simulate_dispatch,
)
from repro.service.workers import WorkerRuntime


WORKERS = 3

#: Heavy-looking, moderate-running: one task per 300-node instance.
LARGE_SPECS = [
    RunSpec(family="tree", n=300, alpha=2.0, k=2, seed=seed, solver="greedy")
    for seed in range(2)
]
#: Light-looking, slow-running: full-knowledge exact best responses on
#: 30-node instances (weight 30 vs 300, runtime comparable per task).
SMALL_SPECS = [
    RunSpec(
        family="tree",
        n=30,
        alpha=0.8,
        k=FULL_KNOWLEDGE_K,
        seed=100 + seed,
        solver="branch_and_bound",
    )
    for seed in range(8)
]

#: α-grid over one instance for the shared-view leg.
VIEW_SWEEP_SPECS = [
    RunSpec(family="gnp", n=40, p=0.15, alpha=alpha, k=2, seed=11, solver="greedy")
    for alpha in (0.3, 0.8, 1.5, 3.0)
]


def _measure_serial_durations(tasks) -> tuple[dict[str, float], list]:
    """Per-task wall seconds through one warm runtime, plus decoded rows."""
    runtime = WorkerRuntime()
    durations: dict[str, float] = {}
    rows = [None] * len(tasks)
    for task in tasks:
        start = time.perf_counter()
        payload = encode_result(task, runtime.execute(task))
        durations[task.spec_hash] = time.perf_counter() - start
        rows[task.index] = decode_result(task.kind, payload)
    return durations, rows


def _count_steals(tasks, durations) -> int:
    """Replay the stealing dispatch on the virtual clock, read the counter."""
    queue = AffinityTaskQueue(tasks, WORKERS, steal=True)
    events = [(0.0, worker) for worker in range(WORKERS)]
    heapq.heapify(events)
    while events:
        now, worker = heapq.heappop(events)
        task = queue.next_task(worker)
        if task is not None:
            heapq.heappush(events, (now + durations[task.spec_hash], worker))
    return queue.steals


def _run_benchmark() -> dict:
    specs = LARGE_SPECS + SMALL_SPECS
    tasks = compile_run_specs(specs)

    # Leg 1: serial measurement — real per-task durations + reference rows.
    durations, serial_rows = _measure_serial_durations(tasks)

    # Leg 2: virtual-time makespans of both policies over those durations.
    static_makespan, static_assign = simulate_dispatch(
        tasks, WORKERS, durations, steal=False
    )
    steal_makespan, _ = simulate_dispatch(tasks, WORKERS, durations, steal=True)
    steals = _count_steals(tasks, durations)

    # Leg 3: the real forked (stealing) pool — rows must match serial
    # bit-for-bit; the wall clock is informational.
    start = time.perf_counter()
    steal_rows = orchestrate(tasks, ServiceConfig(workers=WORKERS))
    steal_wall_s = time.perf_counter() - start

    # Leg 4: α-sweep over one instance through a single runtime — every
    # session after the first adopts its startup views from the store.
    view_tasks = compile_run_specs(VIEW_SWEEP_SPECS)
    runtime = WorkerRuntime()
    sweep_rows = [decode_result(t.kind, encode_result(t, runtime.execute(t))) for t in view_tasks]
    sweep_serial = [run_single(spec) for spec in VIEW_SWEEP_SPECS]

    return {
        "benchmark": "work-stealing dispatch vs static weighted shards",
        "workers": WORKERS,
        "tasks": len(tasks),
        "large_groups": len(LARGE_SPECS),
        "small_groups": len(SMALL_SPECS),
        "durations_s": {h: round(s, 4) for h, s in sorted(durations.items())},
        "static_group_counts": sorted(len(a) for a in static_assign),
        "static_makespan_s": round(static_makespan, 4),
        "steal_makespan_s": round(steal_makespan, 4),
        "steal_speedup": round(static_makespan / steal_makespan, 2),
        "steals": steals,
        "steal_wall_s": round(steal_wall_s, 4),
        "rows_identical_steal": steal_rows == serial_rows,
        "view_store": runtime.view_store.counters(),
        "view_sweep_rows_identical": sweep_rows == sweep_serial,
    }


def test_bench_steal(benchmark, emit_report):
    report = benchmark.pedantic(_run_benchmark, rounds=1, iterations=1)
    emit_report(report, "BENCH_steal")
    # Same tasks, same rows — serial or stealing pool.
    assert report["rows_identical_steal"]
    assert report["view_sweep_rows_identical"]
    # The static planner really did pile the small groups on one worker...
    assert report["static_group_counts"] == [1, 1, 8]
    # ...and stealing drained the pile: >= 1.5x makespan, real steals.
    assert report["steals"] > 0
    assert report["steal_speedup"] >= 1.5
    # The shared view store saw real cross-session adoptions on the α-sweep.
    assert report["view_store"]["view_store_hits"] > 0
