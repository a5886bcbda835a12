"""Timing harness for the central group queue vs a static weighted plan.

Writes ``BENCH_steal.json`` under ``benchmarks/out/``.

The scenario is a static planner's blind spot: estimated group weight is
``instance nodes x task count``, which is blind to *per-task* difficulty.
The straggler grid exploits that — two 300-node ``k=2`` greedy instances
(huge weight, moderate runtime) next to eight 30-node full-knowledge
branch-and-bound instances (tiny weight, comparable runtime each).  A
static heaviest-first plan onto the least-loaded shard parks both
heavy-looking groups on their own workers and piles all eight deceptively
light groups behind the third; the central ``AffinityTaskQueue`` hands
each pending group to whichever worker frees up first, so the other
workers take their share of the pile once their large group is done.

Because the host may be single-core, the makespan gate runs in *virtual
time*: per-task durations are measured serially, then the static plan is
summed per shard and the queue is replayed on a deterministic event clock
(a worker calls ``next_task`` the moment its previous task ends, as in the
real pool).  The real forked pool's wall clock is recorded as context, and
its rows must be bit-identical to the serial path's.

Acceptance figures:

* virtual-time makespan: the queue >= 1.5x over the static plan, with the
  eight small groups spread over >= 2 workers, and
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
    group_weight,
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


def _static_plan(tasks) -> list[list]:
    """Static weighted shards: heaviest group first onto the lightest shard."""
    groups: dict[str, list] = {}
    for task in tasks:
        groups.setdefault(task.instance_key, []).append(task)
    shards: list[list] = [[] for _ in range(WORKERS)]
    loads = [0] * WORKERS
    for key in sorted(groups, key=lambda key: (-group_weight(groups[key]), key)):
        target = min(range(WORKERS), key=lambda i: (loads[i], i))
        shards[target].extend(groups[key])
        loads[target] += group_weight(groups[key])
    return shards


def _replay_queue(tasks, durations) -> tuple[float, list[list]]:
    """The queue on a virtual clock: ``(makespan, tasks per worker)``."""
    queue = AffinityTaskQueue(tasks, WORKERS)
    events = [(0.0, worker) for worker in range(WORKERS)]
    assignments: list[list] = [[] for _ in range(WORKERS)]
    makespan = 0.0
    while events:
        now, worker = heapq.heappop(events)
        task = queue.next_task(worker)
        if task is None:
            makespan = max(makespan, now)
            continue
        assignments[worker].append(task)
        heapq.heappush(events, (now + durations[task.spec_hash], worker))
    return makespan, assignments


def _run_benchmark() -> dict:
    specs = LARGE_SPECS + SMALL_SPECS
    tasks = compile_run_specs(specs)

    # Leg 1: serial measurement — real per-task durations + reference rows.
    durations, serial_rows = _measure_serial_durations(tasks)

    # Leg 2: virtual-time makespans of the static plan and the queue over
    # those durations.
    static_assign = _static_plan(tasks)
    static_makespan = max(
        sum(durations[task.spec_hash] for task in shard) for shard in static_assign
    )
    queue_makespan, queue_assign = _replay_queue(tasks, durations)
    small_group_workers = sum(
        any(task.payload[0].n == SMALL_SPECS[0].n for task in assigned)
        for assigned in queue_assign
    )

    # Leg 3: the real forked pool — rows must match serial bit-for-bit; the
    # wall clock is informational.
    start = time.perf_counter()
    pool_rows = orchestrate(tasks, ServiceConfig(workers=WORKERS))
    pool_wall_s = time.perf_counter() - start

    # Leg 4: α-sweep over one instance through a single runtime — every
    # session after the first adopts its startup views from the store.
    view_tasks = compile_run_specs(VIEW_SWEEP_SPECS)
    runtime = WorkerRuntime()
    sweep_rows = [decode_result(t.kind, encode_result(t, runtime.execute(t))) for t in view_tasks]
    sweep_serial = [run_single(spec) for spec in VIEW_SWEEP_SPECS]

    return {
        "benchmark": "central group queue vs static weighted shards",
        "workers": WORKERS,
        "tasks": len(tasks),
        "large_groups": len(LARGE_SPECS),
        "small_groups": len(SMALL_SPECS),
        "durations_s": {h: round(s, 4) for h, s in sorted(durations.items())},
        "static_group_counts": sorted(len(a) for a in static_assign),
        "static_makespan_s": round(static_makespan, 4),
        "queue_makespan_s": round(queue_makespan, 4),
        "queue_speedup": round(static_makespan / queue_makespan, 2),
        "small_group_workers": small_group_workers,
        "pool_wall_s": round(pool_wall_s, 4),
        "rows_identical_pool": pool_rows == serial_rows,
        "view_store": runtime.view_store.counters(),
        "view_sweep_rows_identical": sweep_rows == sweep_serial,
    }


def test_bench_steal(benchmark, emit_report):
    report = benchmark.pedantic(_run_benchmark, rounds=1, iterations=1)
    emit_report(report, "BENCH_steal")
    # Same tasks, same rows — serial or pooled.
    assert report["rows_identical_pool"]
    assert report["view_sweep_rows_identical"]
    # The static plan really did pile the small groups on one worker...
    assert report["static_group_counts"] == [1, 1, 8]
    # ...and the queue spread the pile: >= 1.5x makespan, >= 2 workers.
    assert report["small_group_workers"] >= 2
    assert report["queue_speedup"] >= 1.5
    # The shared view store saw real cross-session adoptions on the α-sweep.
    assert report["view_store"]["view_store_hits"] > 0
