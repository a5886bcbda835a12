"""Sweep orchestration service (see ROADMAP "Service layer").

Compiles any sweep — :class:`~repro.experiments.runner.RunSpec` grids,
robustness operator chains, SumNCG grids, plain ``func(item)`` maps —
into tasks, hands them out as warm-session units (heaviest instance first)
from one central queue to persistent warm-engine workers (live
:class:`~repro.engine.DynamicsEngine` sessions, cached instances), journals
every completed task crash-safely and resumes interrupted sweeps with the
identical row set.  Entry points:
:func:`repro.service.api.orchestrate` and the ``python -m repro sweep``
CLI.

The served layer on top (``python -m repro serve``): a persistent daemon
(:mod:`repro.service.daemon`) with a multi-tenant job queue
(:mod:`repro.service.jobs`), a content-addressed result cache keyed by
``spec_hash``, and a stdlib client (:mod:`repro.service.client`) behind
``python -m repro sweep --remote URL``.
"""

from repro.service.api import (
    ServiceConfig,
    orchestrate,
    robustness_sweep,
    run_spec_sweep,
    sum_sweep,
)
from repro.service.client import ServiceError, SweepClient
from repro.service.daemon import DaemonConfig, ServiceDaemon, run_daemon
from repro.service.jobs import (
    Job,
    JobManager,
    JobQueueFull,
    ResultCache,
    compile_job,
    run_spec_description,
)
from repro.service.journal import SweepJournal
from repro.service.tasks import (
    AffinityTaskQueue,
    SweepTask,
    compile_robustness_tasks,
    compile_run_specs,
    compile_sum_tasks,
    strip_timing_fields,
    sweep_hash,
)
from repro.service.workers import PersistentWorkerPool, WorkerRuntime

__all__ = [
    "ServiceConfig",
    "orchestrate",
    "run_spec_sweep",
    "sum_sweep",
    "robustness_sweep",
    "SweepJournal",
    "SweepTask",
    "compile_run_specs",
    "compile_sum_tasks",
    "compile_robustness_tasks",
    "AffinityTaskQueue",
    "strip_timing_fields",
    "sweep_hash",
    "PersistentWorkerPool",
    "WorkerRuntime",
    "DaemonConfig",
    "ServiceDaemon",
    "run_daemon",
    "SweepClient",
    "ServiceError",
    "Job",
    "JobManager",
    "JobQueueFull",
    "ResultCache",
    "compile_job",
    "run_spec_description",
]
