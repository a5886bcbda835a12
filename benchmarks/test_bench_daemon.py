"""Timing harness for the sweep daemon's content-addressed cache.

Writes ``BENCH_daemon.json`` under ``benchmarks/out/``.

The scenario is the daemon's reason to exist: a grid submitted twice.
The first submission is **cold** — every cell executes on the engine; the
second is the **identical grid again** (same ``spec_hash``es), which the
daemon must serve entirely from the content-addressed result cache with
zero engine executions.  Both legs are timed end-to-end through the HTTP
client (submit → terminal status → results fetched), so the warm figure
is the real client-observed cache-hit latency including the daemon's
dispatch and polling overheads — not just a dict lookup.

The acceptance figures:

* the warm (all-cache-hit) resubmission is >= 10x faster than the cold
  execution of the same grid,
* the warm job's instrumented counters show **zero** engine executions
  and a cache hit for every unique cell, and
* the two submissions return bit-identical rows (timing fields aside).
"""

from __future__ import annotations

import tempfile
import time

from repro.experiments.runner import RunSpec
from repro.service.client import SweepClient
from repro.service.daemon import DaemonConfig, ServiceDaemon
from repro.service.jobs import run_spec_description
from repro.service.tasks import strip_timing_fields


#: Large enough that cold execution dominates every fixed overhead the
#: warm leg also pays (HTTP round-trips, dispatch poll, status polling).
SPECS = [
    RunSpec(
        family="tree",
        n=400,
        alpha=alpha,
        k=2,
        seed=seed,
        solver="greedy",
        max_rounds=60,
    )
    for alpha in (0.5, 1.0, 2.0, 3.0)
    for seed in range(3)
]


def _submit_and_fetch(client: SweepClient) -> tuple[float, dict, list[dict]]:
    """One timed leg: submit the grid, wait, fetch rows."""
    start = time.perf_counter()
    job = client.submit(run_spec_description(SPECS))
    final = client.wait(job["id"], timeout=600, poll=0.01)
    rows = strip_timing_fields(
        [result.as_row() for result in client.decoded_results(job["id"])]
    )
    return time.perf_counter() - start, final, rows


def _run_benchmark() -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        daemon = ServiceDaemon(
            DaemonConfig(store_dir=tmp, in_process=True, port=0)
        )
        daemon.start()
        try:
            client = SweepClient(daemon.base_url)
            cold_s, cold_job, cold_rows = _submit_and_fetch(client)
            warm_s, warm_job, warm_rows = _submit_and_fetch(client)
            stats = client.stats()
        finally:
            daemon.stop()
    return {
        "benchmark": "sweep daemon: content-addressed cache hit vs cold execution",
        "grid_cells": len(SPECS),
        "n": SPECS[0].n,
        "family": SPECS[0].family,
        "cold_s": round(cold_s, 4),
        "warm_s": round(warm_s, 4),
        "speedup": round(cold_s / warm_s, 2),
        "cold_executed": cold_job["executed"],
        "warm_executed": warm_job["executed"],
        "warm_from_cache": warm_job["from_cache"],
        "unique_tasks": warm_job["unique_tasks"],
        "daemon_engine_executions": stats["engine_executions"],
        "rows_identical": cold_rows == warm_rows,
    }


def test_bench_daemon(benchmark, emit_report):
    report = benchmark.pedantic(_run_benchmark, rounds=1, iterations=1)
    emit_report(report, "BENCH_daemon")
    # The repeated grid is pure cache: zero engine work, every cell a hit.
    assert report["warm_executed"] == 0
    assert report["warm_from_cache"] == report["unique_tasks"]
    assert report["daemon_engine_executions"] == report["unique_tasks"]
    assert report["rows_identical"]
    # The acceptance figure: cache-hit latency >= 10x faster than cold.
    assert report["speedup"] >= 10.0
