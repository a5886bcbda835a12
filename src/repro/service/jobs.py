"""Job model of the sweep daemon: descriptions, result cache, queue.

The daemon (:mod:`repro.service.daemon`) serves *jobs*: JSON descriptions
of the same three sweep shapes the batch service compiles
(:mod:`repro.service.tasks`) — ``RunSpec`` grids, robustness studies,
SumNCG grids.  This module owns everything about a job except the HTTP
surface and the task execution backend:

* **Descriptions** — :func:`compile_job` turns a client-posted JSON
  description into the canonical :class:`~repro.service.tasks.SweepTask`
  list (the same compilers, hence the same ``spec_hash`` identities, as
  the CLI batch path); ``run_spec_description`` / ``sum_description`` /
  ``robustness_description`` build the wire form from the in-process
  objects.
* **The content-addressed result cache** — :class:`ResultCache`, an
  append-only, fsynced, torn-tail-tolerant jsonl keyed by ``spec_hash``.
  Any task whose hash is cached is served with **zero engine work**, no
  matter which job (or which daemon lifetime) computed it first.
* **The job table and FIFO queue** — :class:`JobManager`: bounded-queue
  backpressure (:class:`JobQueueFull` → HTTP 429), per-job cancellation,
  per-job crash-safe journals riding the existing
  :class:`~repro.service.journal.SweepJournal` ``--resume`` machinery, and
  event fan-out to streaming subscribers.  Job records are persisted
  atomically under ``<store>/.jobs/``, so a SIGKILLed daemon restarted on
  the same store directory re-enqueues every non-terminal job and resumes
  it from its journal.
"""

from __future__ import annotations

import asyncio
import json
import os
import uuid
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any

from repro.experiments.store import ExperimentStore
from repro.obs import get_telemetry
from repro.service.journal import (
    SweepJournal,
    atomic_write_json,
    iter_result_records,
    load_jsonl_records,
    repair_torn_tail,
)
from repro.service.tasks import SweepTask, sweep_hash

__all__ = [
    "JOB_KINDS",
    "TERMINAL_STATUSES",
    "JobQueueFull",
    "UnknownJob",
    "Job",
    "JobManager",
    "ResultCache",
    "compile_job",
    "run_spec_description",
    "sum_description",
    "robustness_description",
]

#: The sweep shapes a job description may carry.
JOB_KINDS: frozenset[str] = frozenset({"run_spec", "sum", "robustness"})

#: Statuses a job never leaves.
TERMINAL_STATUSES: frozenset[str] = frozenset({"done", "failed", "cancelled"})


class JobQueueFull(RuntimeError):
    """The daemon's bounded job queue is full (HTTP 429 to clients)."""


class UnknownJob(KeyError):
    """No job with the requested id (HTTP 404 to clients)."""


# ----------------------------------------------------------------------
# Job descriptions (wire form <-> compiled tasks)
# ----------------------------------------------------------------------
def run_spec_description(specs: list) -> dict:
    """Wire-form job description of a ``RunSpec`` grid."""
    return {"kind": "run_spec", "specs": [asdict(spec) for spec in specs]}


def sum_description(config) -> dict:
    """Wire-form job description of a SumNCG study grid."""
    return {
        "kind": "sum",
        "sizes": list(config.sizes),
        "alphas": list(config.alphas),
        "ks": list(config.ks),
        "settings": asdict(config.settings),
    }


def robustness_description(config) -> dict:
    """Wire-form job description of a robustness study grid."""
    return {
        "kind": "robustness",
        "families": list(config.families),
        "operators": list(config.operators),
        "n": config.n,
        "alphas": list(config.alphas),
        "ks": list(config.ks),
        "shocks_per_instance": config.shocks_per_instance,
        "intensity": config.intensity,
        "usage": config.usage,
        "cost_model": config.cost_model,
        "penalty_beta": config.penalty_beta,
        "settings": asdict(config.settings),
    }


def compile_job(description: dict) -> list[SweepTask]:
    """Compile a job description into its canonical task list.

    The same compilers — and therefore the same ``instance_key`` /
    ``session_key`` / ``spec_hash`` identities — as the batch CLI path, so
    a grid cell computed by any client (or by ``python -m repro sweep``
    against the same store) is a cache hit for every later client.
    Malformed descriptions raise ``ValueError``/``TypeError``/``KeyError``
    (HTTP 400 to clients), and so do run specs and study grids that
    execution would refuse (``RunSpec``, ``SumDynamicsConfig`` and
    ``RobustnessStudyConfig`` refuse them at construction), so a bad job is
    refused at submission instead of failing later in a worker.
    """
    if not isinstance(description, dict):
        raise ValueError("job description must be a JSON object")
    kind = description.get("kind")
    if kind not in JOB_KINDS:
        raise ValueError(
            f"unknown job kind {kind!r} (expected one of {sorted(JOB_KINDS)})"
        )
    if kind == "run_spec":
        from repro.experiments.runner import RunSpec
        from repro.service.tasks import compile_run_specs

        # RunSpec refuses any spec execution would refuse.
        specs = [RunSpec(**spec) for spec in _list(description, "specs")]
        if not specs:
            raise ValueError("run_spec job carries no specs")
        return compile_run_specs(specs)
    from repro.experiments.config import SweepSettings

    settings = SweepSettings(**description["settings"])
    if kind == "sum":
        from repro.experiments.extensions.sum_dynamics import SumDynamicsConfig
        from repro.service.tasks import compile_sum_tasks

        return compile_sum_tasks(
            SumDynamicsConfig(
                sizes=_list(description, "sizes"),
                alphas=_list(description, "alphas"),
                ks=_list(description, "ks"),
                settings=settings,
            )
        )
    from repro.experiments.extensions.robustness import RobustnessStudyConfig
    from repro.service.tasks import compile_robustness_tasks

    return compile_robustness_tasks(
        RobustnessStudyConfig(
            families=_list(description, "families"),
            operators=_list(description, "operators"),
            n=description["n"],
            alphas=_list(description, "alphas"),
            ks=_list(description, "ks"),
            shocks_per_instance=description["shocks_per_instance"],
            intensity=description["intensity"],
            usage=description.get("usage", "max"),
            cost_model=description.get("cost_model", "strict"),
            penalty_beta=description.get("penalty_beta"),
            settings=settings,
        )
    )


def _list(description: dict, key: str) -> tuple:
    """``description[key]`` as a tuple; refuses anything but a JSON list.

    ``tuple("tree")`` would silently become four one-letter names.
    """
    value = description[key]
    if not isinstance(value, list):
        raise ValueError(f"{key!r} must be a JSON list, got {type(value).__name__}")
    return tuple(value)


# ----------------------------------------------------------------------
# The content-addressed result cache
# ----------------------------------------------------------------------
class ResultCache:
    """Durable ``spec_hash -> (kind, payload)`` store shared by all jobs.

    An append-only jsonl with the journal's durability contract: every
    record is flushed and fsynced before the task that produced it is
    acknowledged, a torn trailing line (SIGKILL mid-append) is repaired on
    open, and entries are never evicted — a grid cell certified once is
    served from here forever, across jobs, clients and daemon restarts.
    First record wins on duplicates: payloads are deterministic except for
    the documented wall-clock timing fields, and a stable cache keeps
    repeated reads byte-identical.
    """

    FILE_NAME = "results.jsonl"

    def __init__(self, directory: str | Path) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.path = self.directory / self.FILE_NAME
        repair_torn_tail(self.path)
        self._entries: dict[str, tuple[str, Any]] = {}
        for record in iter_result_records(load_jsonl_records(self.path)):
            self._entries.setdefault(
                record["spec_hash"], (record["kind"], record["payload"])
            )
        self._handle = self.path.open("a", encoding="utf-8")

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, spec_hash: str) -> bool:
        return spec_hash in self._entries

    def get(self, spec_hash: str) -> tuple[str, Any] | None:
        """The cached ``(kind, payload)`` of a task, or ``None``."""
        return self._entries.get(spec_hash)

    def put(self, spec_hash: str, kind: str, payload: Any) -> None:
        """Durably cache one result (no-op if the hash is already cached)."""
        if spec_hash in self._entries:
            return
        record = {"spec_hash": spec_hash, "kind": kind, "payload": payload}
        self._handle.write(json.dumps(record) + "\n")
        self._handle.flush()
        os.fsync(self._handle.fileno())
        self._entries[spec_hash] = (kind, payload)

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None


# ----------------------------------------------------------------------
# Jobs
# ----------------------------------------------------------------------
@dataclass
class Job:
    """One submitted sweep and its live serving state."""

    id: str
    seq: int
    description: dict
    experiment: str
    status: str = "queued"
    error: str | None = None
    #: Grid size, counting duplicated spec_hashes once / per occurrence.
    num_tasks: int = 0
    unique_tasks: int = 0
    #: Unique hashes served from the job's own journal (daemon-crash resume),
    #: from the cross-job content-addressed cache, and actually executed.
    from_journal: int = 0
    from_cache: int = 0
    executed: int = 0
    cancel_requested: bool = False
    events: list[dict] = field(default_factory=list)
    subscribers: list[asyncio.Queue] = field(default_factory=list)

    @property
    def completed_unique(self) -> int:
        return self.from_journal + self.from_cache + self.executed

    def view(self) -> dict:
        """The JSON status document served for this job."""
        return {
            "id": self.id,
            "kind": self.description.get("kind"),
            "status": self.status,
            "error": self.error,
            "experiment": self.experiment,
            "num_tasks": self.num_tasks,
            "unique_tasks": self.unique_tasks,
            "completed": self.completed_unique,
            "from_journal": self.from_journal,
            "from_cache": self.from_cache,
            "executed": self.executed,
        }

    def record(self) -> dict:
        """The durable on-disk form (everything a restart needs)."""
        return {
            "format": "repro-daemon-job",
            "version": 1,
            "id": self.id,
            "seq": self.seq,
            "experiment": self.experiment,
            "status": self.status,
            "error": self.error,
            "description": self.description,
        }


class JobManager:
    """Job table, FIFO queue, cache and journals of one daemon instance.

    All bookkeeping methods (submit/cancel/subscribe/status) run on the
    daemon's event loop; :meth:`execute` is the blocking per-job body the
    dispatcher offloads to a worker thread, publishing events back onto the
    loop thread-safely.  Execution itself is delegated to the injected
    ``executor`` (the shared persistent pool, or the in-process runtime),
    which only ever sees the cache-missing tasks.
    """

    JOBS_DIR = ".jobs"
    CACHE_DIR = ".cache"

    def __init__(self, store_dir: str | Path, queue_size: int = 16) -> None:
        self.store = ExperimentStore(store_dir)
        self.store_dir = Path(store_dir)
        self.queue_size = max(1, queue_size)
        self.jobs_dir = self.store_dir / self.JOBS_DIR
        self.jobs_dir.mkdir(parents=True, exist_ok=True)
        self.cache = ResultCache(self.store_dir / self.CACHE_DIR)
        self.jobs: dict[str, Job] = {}
        self.queue: asyncio.Queue[str] = asyncio.Queue()
        self.running = True
        self._loop: asyncio.AbstractEventLoop | None = None
        self._next_seq = 1
        #: Daemon-lifetime counters — registry-backed so ``/stats`` and
        #: ``/metrics`` read the same live values (the read-through
        #: properties below keep the historical attribute names).
        registry = get_telemetry().registry
        self._m_jobs_submitted = registry.counter(
            "repro_daemon_jobs_submitted_total",
            "Jobs accepted by the daemon.",
        ).child()
        sources = registry.counter(
            "repro_daemon_task_sources_total",
            "Unique task hashes served, by source.",
            labelnames=("source",),
        )
        self._m_cache_hits = sources.child(source="cache")
        self._m_journal_hits = sources.child(source="journal")
        self._m_engine_executions = sources.child(source="engine")
        # Live reads at collection time; a later manager on the same
        # registry simply takes over the series (latest daemon wins).
        registry.gauge(
            "repro_daemon_queue_depth", "Jobs waiting in the daemon queue."
        ).labels().set_function(self.queue.qsize)
        registry.gauge(
            "repro_daemon_cache_entries",
            "Entries in the content-addressed result cache.",
        ).labels().set_function(lambda: len(self.cache))

    @property
    def jobs_submitted(self) -> int:
        return self._m_jobs_submitted.value

    @property
    def cache_hits(self) -> int:
        return self._m_cache_hits.value

    @property
    def journal_hits(self) -> int:
        return self._m_journal_hits.value

    @property
    def engine_executions(self) -> int:
        return self._m_engine_executions.value

    def bind_loop(self, loop: asyncio.AbstractEventLoop) -> None:
        self._loop = loop

    # -- submission / recovery -----------------------------------------
    def submit(self, description: dict) -> Job:
        """Validate, persist and enqueue one job (loop thread only).

        Raises :class:`JobQueueFull` when ``queue_size`` jobs are already
        waiting — the backpressure contract; the currently running job does
        not count against the bound.
        """
        tasks = compile_job(description)
        if self.queue.qsize() >= self.queue_size:
            raise JobQueueFull(
                f"job queue is full ({self.queue.qsize()} waiting); retry later"
            )
        job_id = uuid.uuid4().hex[:12]
        job = Job(
            id=job_id,
            seq=self._next_seq,
            description=description,
            experiment=f"job-{job_id}",
            num_tasks=len(tasks),
            unique_tasks=len({task.spec_hash for task in tasks}),
        )
        self._next_seq += 1
        self.jobs[job.id] = job
        self._persist(job)
        self.queue.put_nowait(job.id)
        self._m_jobs_submitted.inc()
        self._publish(job, {"type": "status", "job_id": job.id, "status": "queued"})
        return job

    def recover(self) -> list[Job]:
        """Reload persisted jobs; re-enqueue the non-terminal ones in order.

        The re-enqueued jobs resume from their own journals (completed
        records skipped via the standard ``--resume`` machinery) plus the
        global cache, so a SIGKILLed daemon restarted on the same store
        finishes exactly the work that was still missing.
        """
        records = []
        for path in sorted(self.jobs_dir.glob("*.json")):
            try:
                records.append(json.loads(path.read_text()))
            except json.JSONDecodeError:
                continue  # torn job record: the submission was never acked
        records.sort(key=lambda record: record.get("seq", 0))
        resumed: list[Job] = []
        for record in records:
            job = Job(
                id=record["id"],
                seq=record.get("seq", 0),
                description=record["description"],
                experiment=record["experiment"],
                status=record.get("status", "queued"),
                error=record.get("error"),
            )
            try:
                tasks = compile_job(job.description)
                job.num_tasks = len(tasks)
                job.unique_tasks = len({task.spec_hash for task in tasks})
            except (ValueError, TypeError, KeyError) as exc:
                job.status = "failed"
                job.error = f"unrecoverable job description: {exc}"
            self.jobs[job.id] = job
            self._next_seq = max(self._next_seq, job.seq + 1)
            if job.status not in TERMINAL_STATUSES:
                job.status = "queued"
                self._persist(job)
                self.queue.put_nowait(job.id)
                resumed.append(job)
        return resumed

    # -- lookup / cancellation -----------------------------------------
    def get(self, job_id: str) -> Job:
        try:
            return self.jobs[job_id]
        except KeyError:
            raise UnknownJob(job_id) from None

    def cancel(self, job_id: str) -> Job:
        """Request cancellation (loop thread only).

        A queued job is cancelled immediately; a running one stops after
        the tasks currently in flight drain (their results are still
        journaled and cached — finished work is never thrown away).
        Terminal jobs are left untouched.
        """
        job = self.get(job_id)
        if job.status in TERMINAL_STATUSES:
            return job
        job.cancel_requested = True
        if job.status == "queued":
            self._finish(job, "cancelled", from_thread=False)
        return job

    # -- events ---------------------------------------------------------
    def subscribe(self, job: Job) -> tuple[list[dict], asyncio.Queue]:
        """Snapshot of past events plus a live queue (loop thread only)."""
        queue: asyncio.Queue = asyncio.Queue()
        job.subscribers.append(queue)
        return list(job.events), queue

    def unsubscribe(self, job: Job, queue: asyncio.Queue) -> None:
        if queue in job.subscribers:
            job.subscribers.remove(queue)

    def _publish(self, job: Job, event: dict) -> None:
        job.events.append(event)
        for queue in job.subscribers:
            queue.put_nowait(event)

    def _emit(self, job: Job, event: dict, from_thread: bool) -> None:
        if from_thread and self._loop is not None:
            self._loop.call_soon_threadsafe(self._publish, job, event)
        else:
            self._publish(job, event)

    # -- persistence ----------------------------------------------------
    def _persist(self, job: Job) -> None:
        atomic_write_json(self.jobs_dir / f"{job.id}.json", job.record())

    def _finish(self, job: Job, status: str, from_thread: bool) -> None:
        job.status = status
        self._persist(job)
        event = {"type": "status", "job_id": job.id, "status": status}
        if job.error:
            event["error"] = job.error
        self._emit(job, event, from_thread)

    # -- execution (dispatcher thread) ----------------------------------
    def execute(self, job: Job, executor) -> None:
        """Blocking per-job body: dedupe against cache/journal, run misses.

        Called by the dispatcher in a worker thread.  Every fresh result is
        journaled into the job's own :class:`SweepJournal` (fsynced, the
        resume source after a daemon crash) *and* inserted into the global
        content-addressed cache; cache/journal hits cost zero engine work
        and append **nothing** to the journal.
        """
        if job.cancel_requested:
            self._finish(job, "cancelled", from_thread=True)
            return
        job.status = "running"
        self._persist(job)
        self._emit(
            job,
            {"type": "status", "job_id": job.id, "status": "running"},
            from_thread=True,
        )
        try:
            tasks = compile_job(job.description)
            journal = SweepJournal(self.store.experiment_dir(job.experiment))
            resume = journal.manifest_path.exists()
            completed = journal.open(sweep_hash(tasks), len(tasks), resume=resume)
            try:
                by_hash: dict[str, list[SweepTask]] = {}
                for task in tasks:
                    by_hash.setdefault(task.spec_hash, []).append(task)
                job.num_tasks = len(tasks)
                job.unique_tasks = len(by_hash)
                job.from_journal = job.from_cache = job.executed = 0
                pending: list[SweepTask] = []
                for spec_hash, members in by_hash.items():
                    kind = members[0].kind
                    if spec_hash in completed:
                        # Crash window: the record was journaled but the
                        # cache insert never ran.  Heal the cache here so
                        # "done" always implies "fully cached".
                        if spec_hash not in self.cache:
                            self.cache.put(spec_hash, kind, completed[spec_hash])
                        job.from_journal += 1
                        self._m_journal_hits.inc()
                        self._task_event(job, members, "journal")
                    elif spec_hash in self.cache:
                        job.from_cache += 1
                        self._m_cache_hits.inc()
                        self._task_event(job, members, "cache")
                    else:
                        pending.append(members[0])

                def on_result(index: int, spec_hash: str, kind: str, payload) -> None:
                    journal.append(spec_hash, index, kind, payload)
                    self.cache.put(spec_hash, kind, payload)
                    job.executed += 1
                    self._m_engine_executions.inc()
                    self._task_event(job, by_hash[spec_hash], "engine")

                executor.run_tasks(
                    pending,
                    on_result,
                    should_abort=lambda: job.cancel_requested or not self.running,
                    on_telemetry=journal.append_telemetry,
                )
            finally:
                journal.close()
        except Exception as exc:  # noqa: BLE001 - one bad job must not kill the daemon
            job.error = f"{type(exc).__name__}: {exc}"
            self._finish(job, "failed", from_thread=True)
            return
        if job.cancel_requested:
            self._finish(job, "cancelled", from_thread=True)
        elif job.completed_unique < job.unique_tasks:
            # Only reachable on daemon shutdown mid-job: park it queued so
            # the next daemon on this store resumes it from the journal.
            job.status = "queued"
            self._persist(job)
        else:
            self._finish(job, "done", from_thread=True)

    def _task_event(self, job: Job, members: list[SweepTask], source: str) -> None:
        self._emit(
            job,
            {
                "type": "task",
                "job_id": job.id,
                "spec_hash": members[0].spec_hash,
                "kind": members[0].kind,
                "source": source,
                "indexes": [task.index for task in members],
                "completed": job.completed_unique,
                "unique_tasks": job.unique_tasks,
            },
            from_thread=True,
        )

    # -- results --------------------------------------------------------
    def collect_results(
        self, job: Job, offset: int = 0, limit: int | None = None
    ) -> tuple[list[dict], int]:
        """One page of a finished job's encoded payloads, canonical order.

        Pure store reads: the cache holds every hash a done job touched
        (with the job's own journal as the crash-window fallback), so
        serving results never re-runs the engine — this is the
        content-addressed read path clients hit after ``status == done``.

        ``offset``/``limit`` select a slice of the canonical task order
        (``limit=None`` means "to the end"); only the selected slice's
        payloads are materialised, so paging over a million-row grid never
        builds the whole response in memory.  Returns ``(page, total)``
        with ``total`` the job's full task count.
        """
        if offset < 0:
            raise ValueError("offset must be >= 0")
        if limit is not None and limit < 0:
            raise ValueError("limit must be >= 0")
        tasks = compile_job(job.description)
        total = len(tasks)
        end = total if limit is None else min(total, offset + limit)
        page = tasks[offset:end]
        journal_payloads: dict[str, Any] | None = None
        results: list[dict] = []
        for task in page:
            entry = self.cache.get(task.spec_hash)
            if entry is None:
                if journal_payloads is None:
                    journal_payloads = {
                        record["spec_hash"]: (record["kind"], record["payload"])
                        for record in iter_result_records(
                            load_jsonl_records(
                                self.store.experiment_dir(job.experiment)
                                / SweepJournal.LOG_NAME
                            )
                        )
                    }
                entry = journal_payloads.get(task.spec_hash)
            if entry is None:
                raise UnknownJob(
                    f"job {job.id} has no stored result for {task.spec_hash}"
                )
            kind, payload = entry
            results.append(
                {
                    "index": task.index,
                    "spec_hash": task.spec_hash,
                    "kind": kind,
                    "payload": payload,
                }
            )
        return results, total

    # -- stats ----------------------------------------------------------
    def stats(self) -> dict:
        return {
            "jobs_submitted": self.jobs_submitted,
            "jobs_total": len(self.jobs),
            "queue_depth": self.queue.qsize(),
            "queue_size": self.queue_size,
            "cache_entries": len(self.cache),
            "cache_hits": self.cache_hits,
            "journal_hits": self.journal_hits,
            "engine_executions": self.engine_executions,
        }

    def close(self) -> None:
        self.running = False
        self.cache.close()
