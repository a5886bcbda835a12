"""Timing harness for the sweep orchestration service.

Writes ``BENCH_service.json`` under ``benchmarks/out/``.

The scenario is the service's reason to exist: a **multi-task-per-instance
sweep** — here a robustness study whose five operator chains all start from
the same converged base equilibrium of each instance.  Two executions of
the *identical* task list are timed:

* **warm service** — :func:`repro.service.api.robustness_sweep` with a
  2-worker pool.  The queue sends all five operator tasks of an instance
  cell (one warm session) to one worker, whose session cache converges
  the base engine once and warm-replays (``restore_profile``) for the
  rest.
* **cold per-task pool** — the same tasks through a throwaway
  :class:`~concurrent.futures.ProcessPoolExecutor` with a fresh
  :class:`~repro.service.workers.WorkerRuntime` per task, i.e. the world
  where every task regenerates its instance and re-converges the base
  dynamics from scratch.

Both paths must produce bit-identical rows up to the documented wall-clock
fields (``warm_s``/``cold_s``/``warm_speedup`` differ between any two runs,
serial ones included).  The acceptance figures:

* the warm service beats the cold pool by >= 2x wall clock, and
* a sweep interrupted mid-journal and resumed with ``--resume`` reproduces
  the uninterrupted row set exactly (deterministic fields bit-for-bit).
"""

from __future__ import annotations

import tempfile
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

from repro.experiments.config import SweepSettings
from repro.experiments.extensions.robustness import RobustnessStudyConfig
from repro.service.api import ServiceConfig, robustness_sweep
from repro.service.tasks import (
    compile_robustness_tasks,
    decode_result,
    encode_result,
    strip_timing_fields,
)
from repro.service.workers import WorkerRuntime


WORKERS = 2

#: Two preferential-attachment instances whose base convergence (~n solver
#: rounds over hub-heavy views) dominates a localized shock chain — the
#: regime where per-task base re-convergence is pure waste.
STUDY = RobustnessStudyConfig(
    families=("barabasi-albert",),
    operators=(
        "add_shortcuts",
        "reset_player",
        "drop_random_edges",
        "hub_attack",
        "multi_reset",
    ),
    n=200,
    alphas=(0.5,),
    ks=(2,),
    shocks_per_instance=1,
    intensity=1,
    settings=SweepSettings(
        num_seeds=2, solver="branch_and_bound", max_rounds=60, workers=WORKERS
    ),
)


def _cold_task(task):
    """Cold per-task pool work item: a throwaway runtime per task."""
    return encode_result(task, WorkerRuntime().execute(task))


def _run_benchmark() -> dict:
    tasks = compile_robustness_tasks(STUDY)
    tasks_per_instance = len(STUDY.operators)

    with tempfile.TemporaryDirectory() as tmp:
        # Warm service pool (journaled, so the resume leg below is a real
        # kill-shaped replay of this very sweep).
        start = time.perf_counter()
        warm_rows, _ = robustness_sweep(
            STUDY, ServiceConfig(workers=WORKERS, journal_dir=tmp, experiment="bench")
        )
        warm_s = time.perf_counter() - start

        # Cold per-task pool over the identical task list.
        start = time.perf_counter()
        # Four chunks per worker: the usual pool-sizing rule of thumb.
        with ProcessPoolExecutor(max_workers=WORKERS) as pool:
            cold_payloads = list(
                pool.map(
                    _cold_task, tasks, chunksize=max(1, len(tasks) // (4 * WORKERS))
                )
            )
        cold_s = time.perf_counter() - start
        cold_rows = [
            row
            for payload in cold_payloads
            for row in decode_result("robustness", payload)[0]
        ]

        rows_identical = strip_timing_fields(warm_rows) == strip_timing_fields(
            cold_rows
        )

        # Interrupt-and-resume: truncate the journal to its first half (the
        # state a SIGKILL leaves behind, torn tail included) and resume.
        log = Path(tmp) / "bench" / "journal.jsonl"
        lines = log.read_text().splitlines(True)
        completed_before_kill = len(lines) // 2
        log.write_text("".join(lines[:completed_before_kill]) + '{"torn-record')
        resumed_rows, _ = robustness_sweep(
            STUDY,
            ServiceConfig(
                workers=WORKERS, journal_dir=tmp, experiment="bench", resume=True
            ),
        )
        resume_identical = strip_timing_fields(resumed_rows) == strip_timing_fields(
            warm_rows
        )

    return {
        "benchmark": "sweep service: warm-affinity workers vs cold per-task pool",
        "workers": WORKERS,
        "tasks": len(tasks),
        "instances": len(tasks) // tasks_per_instance,
        "tasks_per_instance": tasks_per_instance,
        "n": STUDY.n,
        "family": STUDY.families[0],
        "warm_s": round(warm_s, 4),
        "cold_s": round(cold_s, 4),
        "speedup": round(cold_s / warm_s, 2),
        "rows": len(warm_rows),
        "rows_identical": rows_identical,
        "resume_completed_before_kill": completed_before_kill,
        "resume_identical": resume_identical,
    }


def test_bench_service(benchmark, emit_report):
    report = benchmark.pedantic(_run_benchmark, rounds=1, iterations=1)
    emit_report(report, "BENCH_service")
    # The same tasks must mean the same rows, warm or cold, whole or
    # killed-and-resumed.
    assert report["rows_identical"]
    assert report["resume_identical"]
    assert report["resume_completed_before_kill"] >= 1
    # The acceptance figure: warm affinity >= 2x over the cold pool.
    assert report["speedup"] >= 2.0
