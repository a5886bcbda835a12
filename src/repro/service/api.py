"""The sweep orchestration service: compile → shard → execute → journal.

:func:`orchestrate` is the one funnel every sweep routes through, at
any worker count: warm instance-affine workers
(:mod:`repro.service.workers` — in the calling process at one worker), a
crash-safe resumable journal (:mod:`repro.service.journal`), and —
regardless of worker count, shard assignment or completion order —
results that are bit-identical to running each task on its own,
reassembled in canonical task order.

Four thin wrappers adapt the repository's sweep shapes:

* :func:`run_spec_sweep` — ``experiments.runner.run_sweep`` grids;
* :func:`sum_sweep` — ``generate_sum_dynamics``' per-run rows;
* :func:`robustness_sweep` — ``generate_robustness_study``'s
  per-(instance cell, operator) shock chains sharing warm base engines,
  plus the base-equilibrium checkpoint document;
* :func:`map_calls` — ``[func(item) for item in items]`` on ``workers``
  processes, the extension studies' fan-out.

CLI: ``python -m repro sweep --workers W --journal DIR [--resume]``.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro.experiments.config import resolve_workers
from repro.service.journal import SweepJournal
from repro.service.tasks import (
    SweepTask,
    compile_calls,
    compile_robustness_tasks,
    compile_run_specs,
    compile_sum_tasks,
    decode_result,
    shard_tasks,
    sweep_hash,
)
from repro.service.workers import PersistentWorkerPool, WorkerRuntime

__all__ = [
    "ServiceConfig",
    "orchestrate",
    "run_spec_sweep",
    "sum_sweep",
    "robustness_sweep",
    "map_calls",
]


@dataclass(frozen=True)
class ServiceConfig:
    """How one orchestrated sweep executes.

    ``journal_dir`` is an :class:`~repro.experiments.store.ExperimentStore`
    root; the journal lives in its ``<experiment>/`` subdirectory next to
    where the final rows land, and ``resume=True`` skips every journaled
    task of the *same* sweep (a different sweep in the same journal is an
    error).  Multi-worker sweeps run on a :class:`~repro.service.workers.
    PersistentWorkerPool` started for the sweep; ``in_process=True`` (and
    ``workers=1``) runs the shards one after another in the calling
    process, each on a fresh serial :class:`WorkerRuntime` — the
    deterministic stand-in for separate workers that the equivalence tests
    use; ``shard_seed`` deterministically shuffles the group→shard
    assignment to prove shard-order invariance.

    The kernel backend is not configured here: forked workers inherit
    the orchestrator's (:mod:`repro.kernels` — ``REPRO_KERNEL_BACKEND``
    or :func:`~repro.kernels.set_default_backend`), and backends are
    bit-identical, so journals and results never depend on it.

    A multi-worker pool dispatches through the
    :class:`~repro.service.tasks.AffinityTaskQueue`: idle workers steal
    whole pending instance-groups from stragglers.  Each group runs on
    one worker, which builds the group's instance itself.  Rows never
    depend on the dispatch — only the makespan does.

    ``telemetry=True`` runs every task under trace spans (engine rounds,
    best responses, view refreshes, kernel calls) and journals one
    additive ``kind="telemetry"`` summary record per executed task next
    to its result record — exportable as a Chrome trace via ``python -m
    repro trace``.  Rows and journaled result payloads stay bit-identical
    to a telemetry-off run except for the wall-clock
    :data:`~repro.service.tasks.TELEMETRY_SUMMARY_FIELDS`, which every
    row-comparison path already strips with the other timing fields.
    """

    workers: int | None = 1
    journal_dir: str | Path | None = None
    experiment: str = "sweep"
    resume: bool = False
    in_process: bool = False
    shard_seed: int | None = None
    telemetry: bool = False


def orchestrate(tasks: list[SweepTask], config: ServiceConfig) -> list[Any]:
    """Execute a compiled sweep; decoded results in canonical task order.

    One worker (or ``in_process``) runs each shard in the calling process
    on a fresh serial :class:`WorkerRuntime`; more workers run the tasks
    on a :class:`PersistentWorkerPool` for the sweep.  Either way an
    instance is built once, by the runtime that executes its group, into
    that runtime's instance cache.  Every result — fresh or
    journaled — passes through the same encode/decode pair, so the
    assembled output of a resumed sweep is byte-identical to an
    uninterrupted one, and the output of a sharded run is byte-identical
    to the one-worker run.
    """
    if not tasks:
        return []
    journal: SweepJournal | None = None
    completed: dict[str, Any] = {}
    if config.journal_dir is not None:
        # The journal lives inside the store's experiment directory; going
        # through the store applies its experiment-name validation *before*
        # the sweep runs, instead of failing at save_rows afterwards.
        from repro.experiments.store import ExperimentStore

        journal = SweepJournal(
            ExperimentStore(config.journal_dir).experiment_dir(config.experiment)
        )
        completed = journal.open(
            sweep_hash(tasks), len(tasks), resume=config.resume
        )
    # Content-addressed dedupe *inside* the sweep: tasks sharing a
    # spec_hash describe byte-identical work, so only the first occurrence
    # executes (or is journaled) and every occurrence is assembled from the
    # one payload — decoded per index, so duplicate rows never alias.
    by_hash: dict[str, list[SweepTask]] = {}
    for task in tasks:
        by_hash.setdefault(task.spec_hash, []).append(task)
    decoded: dict[int, Any] = {}
    pending: list[SweepTask] = []
    for spec_hash, members in by_hash.items():
        if spec_hash in completed:
            for member in members:
                decoded[member.index] = decode_result(
                    member.kind, completed[spec_hash]
                )
        else:
            pending.append(members[0])
    try:
        if pending:
            def on_result(index: int, spec_hash: str, kind: str, payload) -> None:
                if journal is not None:
                    journal.append(spec_hash, index, kind, payload)
                for member in by_hash[spec_hash]:
                    decoded[member.index] = decode_result(kind, payload)

            on_telemetry = journal.append_telemetry if journal is not None else None
            workers = resolve_workers(config.workers)
            if workers == 1 or len(pending) == 1 or config.in_process:
                shards = shard_tasks(
                    pending,
                    workers if config.in_process else 1,
                    order_seed=config.shard_seed,
                )
                for shard in shards:
                    # One fresh runtime per shard mirrors one worker per
                    # shard: the same cache boundaries, deterministically.
                    WorkerRuntime(tracing=config.telemetry).run_tasks(
                        shard, on_result, on_telemetry=on_telemetry
                    )
            else:
                pool = PersistentWorkerPool(
                    workers=workers, telemetry=config.telemetry
                )
                try:
                    pool.run_tasks(
                        pending,
                        on_result,
                        order_seed=config.shard_seed,
                        on_telemetry=on_telemetry,
                    )
                finally:
                    pool.stop()
    finally:
        if journal is not None:
            journal.close()
    return [decoded[task.index] for task in tasks]


# ----------------------------------------------------------------------
# Sweep-shaped wrappers
# ----------------------------------------------------------------------
def run_spec_sweep(specs: list, config: ServiceConfig) -> list:
    """Orchestrated equivalent of ``[run_single(spec) for spec in specs]``."""
    return orchestrate(compile_run_specs(list(specs)), config)


def sum_sweep(study_config, config: ServiceConfig) -> list[dict]:
    """Orchestrated per-run rows of a SumNCG study grid (pre-aggregation)."""
    return orchestrate(compile_sum_tasks(study_config), config)


def robustness_sweep(
    study_config, config: ServiceConfig
) -> tuple[list[dict], dict | None]:
    """Orchestrated robustness study: per-shock rows + checkpoint document.

    Rows are concatenated in canonical (cell-major, operator-minor) task
    order, whatever the worker count.  The second element is
    the first instance cell's certified base-equilibrium checkpoint
    document (``None`` when that base run failed to certify).
    """
    tasks = compile_robustness_tasks(study_config)
    results = orchestrate(tasks, config)
    rows = [row for task_rows, _ in results for row in task_rows]
    checkpoint_document = results[0][1] if results else None
    return rows, checkpoint_document


def map_calls(func, items, workers: int | None = 1) -> list:
    """``[func(item) for item in items]``, run on ``workers`` processes.

    ``func`` must be a module-level function and every item and result
    picklable.  Output is in input order; nothing is journaled; a raising
    ``func`` makes the call raise.
    """
    return orchestrate(compile_calls(func, list(items)), ServiceConfig(workers=workers))
