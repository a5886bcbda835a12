"""Warm sweep workers: engine sessions and instance caches.

A throwaway process pool would re-create the whole world per task: the
instance regenerated (or pickled over), the engine rebuilt, and for
robustness chains the pre-shock base dynamics re-converged — exactly the
state the incremental engine exists to keep alive.  This module keeps it:

* :class:`WorkerRuntime` executes :class:`~repro.service.tasks.SweepTask`s
  while holding two small LRUs — initial instances keyed by
  ``instance_key`` and live :class:`~repro.experiments.extensions.
  robustness._BaseSession` engines keyed by ``session_key``.  Because
  each instance group runs on one worker in compile order, and a serial
  runtime runs the groups one after another, consecutive tasks hit these
  caches: each instance is built once, by that worker,
  and a robustness cell's second operator chain starts from a
  ``restore_profile`` warm replay instead of a cold base convergence.
* :class:`PersistentWorkerPool` runs a fixed set of long-lived worker
  processes fed through an :class:`~repro.service.tasks.AffinityTaskQueue`:
  a worker drains its checked-out instance group (keeping the warm caches
  hot), then checks out the heaviest pending group, and every result
  streams back as ``(index, spec_hash, encoded payload)`` the moment it
  lands — the property that makes a SIGKILL resumable.

Both are *executors* with one protocol — ``start()``, ``run_tasks(tasks,
on_result, should_abort=None, on_telemetry=None)``, ``stop()`` — so the
orchestrator and the daemon pick one and never care which: a
:class:`WorkerRuntime` runs its tasks serially in the calling process
(its ``start``/``stop`` do nothing), the pool runs them in its processes.
They are the repository's only way to fan work out: plain ``func(item)``
maps (the extension studies) ride them as ``"call"`` tasks.

Execution through a runtime is bit-identical to running each task on its
own: tasks are self-contained, warm engine reuse is a ``restore_profile``
+ ``run`` replay of the converged base, and the equivalence is pinned by
``tests/service`` against references built outside the service
(``run_single``, fresh per-cell base engines).
"""

from __future__ import annotations

import multiprocessing as mp
import os
import time
import traceback
from collections import OrderedDict
from queue import Empty

from repro.engine.views import ViewStore
from repro.experiments.config import resolve_workers
from repro.obs import Telemetry, get_telemetry, set_telemetry
from repro.service.tasks import (
    AffinityTaskQueue,
    SweepTask,
    encode_result,
    instance_builder,
    stamp_telemetry_fields,
)

__all__ = [
    "SESSION_CACHE_SIZE",
    "INSTANCE_CACHE_SIZE",
    "WorkerRuntime",
    "PersistentWorkerPool",
]

#: Live engine sessions per worker.  A session's tasks are consecutive
#: inside its instance group, which runs back to back on one worker, so
#: within a sweep a session is not revisited once the next one starts; the
#: second slot keeps the previous session warm for a daemon's next job.
SESSION_CACHE_SIZE: int = 2

#: Initial instances per worker (cheap: one profile each).
INSTANCE_CACHE_SIZE: int = 4


# ----------------------------------------------------------------------
# Warm task execution
# ----------------------------------------------------------------------
class WorkerRuntime:
    """Executes sweep tasks with warm instance and engine-session caches.

    Also the serial executor: :meth:`run_tasks` runs tasks in order in the
    calling process, keeping the caches warm across calls.
    """

    def __init__(self, tracing: bool = False) -> None:
        self._instances: OrderedDict[str, object] = OrderedDict()
        self._sessions: OrderedDict[str, object] = OrderedDict()
        # The handle :meth:`execute_traced` installs around each task, or
        # ``None`` when tracing is off (components then keep reading the
        # process default).
        self._telemetry = Telemetry(tracing=True) if tracing else None
        #: Cross-session view store shared by every engine this runtime
        #: builds: an α-grid's sessions over one instance adopt each other's
        #: refreshed BFS views instead of re-sweeping (keyed by full state
        #: content, so distinct instances never collide).  Bit-identical.
        self.view_store = ViewStore()
        #: Instrumentation (read by tests and the benchmark harness) —
        #: registry-backed, so /metrics aggregates every runtime's caches
        #: while the read-through properties keep per-runtime counts.
        cache_ops = get_telemetry().registry.counter(
            "repro_worker_cache_total",
            "Worker runtime cache activity by cache and event.",
            labelnames=("cache", "event"),
        )
        self._m_sessions_built = cache_ops.child(cache="session", event="built")
        self._m_sessions_reused = cache_ops.child(cache="session", event="reused")
        self._m_instances_built = cache_ops.child(cache="instance", event="built")
        self._m_instances_reused = cache_ops.child(
            cache="instance", event="reused"
        )

    @property
    def sessions_built(self) -> int:
        return self._m_sessions_built.value

    @property
    def sessions_reused(self) -> int:
        return self._m_sessions_reused.value

    @property
    def instances_built(self) -> int:
        return self._m_instances_built.value

    @property
    def instances_reused(self) -> int:
        return self._m_instances_reused.value

    # -- caches --------------------------------------------------------
    def _instance(self, task: SweepTask):
        key = task.instance_key
        if key in self._instances:
            self._instances.move_to_end(key)
            self._m_instances_reused.inc()
            return self._instances[key]
        instance = instance_builder(task)()
        self._m_instances_built.inc()
        self._instances[key] = instance
        while len(self._instances) > INSTANCE_CACHE_SIZE:
            self._instances.popitem(last=False)
        return instance

    def _session(self, task: SweepTask, build):
        key = task.session_key
        if key in self._sessions:
            self._sessions.move_to_end(key)
            self._m_sessions_reused.inc()
            return self._sessions[key]
        session = build()
        self._m_sessions_built.inc()
        self._sessions[key] = session
        while len(self._sessions) > SESSION_CACHE_SIZE:
            self._sessions.popitem(last=False)
        return session

    # -- execution -----------------------------------------------------
    def execute(self, task: SweepTask):
        """Run one task and return its raw (unencoded) result."""
        if task.kind == "run_spec":
            from repro.experiments.runner import run_spec_on_instance

            (spec,) = task.payload
            return run_spec_on_instance(
                spec, self._instance(task), view_store=self.view_store
            )
        if task.kind == "sum":
            from repro.experiments.extensions.sum_dynamics import run_sum_task

            return run_sum_task(
                task.payload, self._instance(task), view_store=self.view_store
            )
        if task.kind == "robustness":
            return self._execute_robustness(task)
        if task.kind == "call":
            func, item = task.payload
            return func(item)
        raise ValueError(f"unknown task kind {task.kind!r}")

    def _execute_robustness(self, task: SweepTask):
        from repro.experiments.extensions.robustness import (
            _base_checkpoint_document,
            _converge_base,
            _operator_rows,
            _unconverged_base_row,
        )

        (
            family,
            n,
            alpha,
            k,
            seed,
            operator,
            shocks,
            intensity,
            solver,
            max_rounds,
            game,
            emit_base,
        ) = task.payload
        session = self._session(
            task,
            lambda: _converge_base(
                family,
                n,
                alpha,
                k,
                seed,
                solver,
                max_rounds,
                game,
                owned=self._instance(task),
                view_store=self.view_store,
            ),
        )
        if not session.result.converged:
            rows = [_unconverged_base_row(session)] if emit_base else []
            return (rows, None)
        rows = _operator_rows(session, operator, shocks, intensity)
        base_document = None
        if emit_base and session.result.certified:
            # The cell's first task owns the base-equilibrium checkpoint.
            base_document = _base_checkpoint_document(session)
        return (rows, base_document)

    def execute_traced(self, task: SweepTask):
        """Run one task; return ``(encoded payload, telemetry summary)``.

        With tracing off the summary is ``None`` and the call is exactly
        :meth:`execute` plus the result codec.  With tracing on the task
        runs under a root ``task.execute`` span with the runtime's tracing
        handle installed process-wide for the duration — the one place a
        handle is installed, so every engine, view cache and kernel
        dispatch wrapper built for the task reads it — then the tracer is
        drained into a summary dict and the wall-clock
        :data:`~repro.service.tasks.TELEMETRY_SUMMARY_FIELDS` are stamped
        onto row-shaped payloads.
        """
        telemetry = self._telemetry
        if telemetry is None:
            return encode_result(task, self.execute(task)), None
        previous = set_telemetry(telemetry)
        start = time.perf_counter()
        try:
            with telemetry.span(
                "task.execute",
                kind=task.kind,
                index=task.index,
                spec_hash=task.spec_hash,
            ):
                result = self.execute(task)
        except BaseException:
            telemetry.drain_events()  # a failed task must not leak spans
            raise
        finally:
            set_telemetry(previous)
        wall_s = time.perf_counter() - start
        events = telemetry.drain_events()
        payload = stamp_telemetry_fields(
            task.kind, encode_result(task, result), wall_s, len(events)
        )
        summary = {
            "worker": os.getpid(),
            "index": task.index,
            "spec_hash": task.spec_hash,
            "kind": task.kind,
            "wall_s": wall_s,
            "span_count": len(events),
            "events": events,
        }
        return payload, summary

    # -- executor protocol ---------------------------------------------
    def start(self) -> None:
        pass

    def run_tasks(self, tasks, on_result, should_abort=None, on_telemetry=None) -> None:
        """Execute ``tasks`` serially; same callbacks as
        :meth:`PersistentWorkerPool.run_tasks`.  The order is the pool's
        dispatch order for one worker — an :class:`~repro.service.tasks.
        AffinityTaskQueue` drained whole: instance groups heaviest first,
        each in compile order — so every instance is built once even when
        a grid interleaves more instances than the cache holds.
        ``should_abort()`` is polled before every task, and a task error
        propagates as raised."""
        queue = AffinityTaskQueue(tasks, 1)
        while (task := queue.next_task(0)) is not None:
            if should_abort is not None and should_abort():
                return
            payload, summary = self.execute_traced(task)
            on_result(task.index, task.spec_hash, task.kind, payload)
            if summary is not None and on_telemetry is not None:
                on_telemetry(summary)

    def stop(self) -> None:
        pass


# ----------------------------------------------------------------------
# The process pool
# ----------------------------------------------------------------------
def _service_worker_main(
    worker_id: int,
    inbox,
    outbox,
    orchestrator_pid: int,
    telemetry: bool = False,
) -> None:
    """Long-lived process body of one :class:`PersistentWorkerPool` slot.

    The loop outlives any single sweep: it drains ``inbox`` until a
    ``None`` sentinel arrives, keeping its :class:`WorkerRuntime` — and
    therefore its warm instance/session caches and shared
    :class:`~repro.engine.views.ViewStore` — alive *across jobs*.  A task
    failure is reported and the loop continues (one bad task must not cost
    the daemon its pool); the orphan guard compares against the
    orchestrator PID captured pre-fork: a SIGKILLed orchestrator (exactly
    what ``--resume`` exists for) would otherwise leave workers burning CPU
    on results nobody collects, concurrently with the resumed run.
    """
    runtime = WorkerRuntime(tracing=telemetry)
    while True:
        try:
            item = inbox.get(timeout=1.0)
        except Empty:
            if os.getppid() != orchestrator_pid:
                return  # daemon died; nobody will ever send the sentinel
            continue
        if item is None:
            return
        task: SweepTask = item
        try:
            payload, summary = runtime.execute_traced(task)
        except BaseException:
            outbox.put(
                (
                    worker_id,
                    "error",
                    task.index,
                    task.spec_hash,
                    task.kind,
                    traceback.format_exc(),
                    None,
                )
            )
            continue
        outbox.put(
            (worker_id, "ok", task.index, task.spec_hash, task.kind, payload, summary)
        )


class PersistentWorkerPool:
    """A fixed set of long-lived worker processes: the process executor.

    Same protocol as :class:`WorkerRuntime` (``start`` / ``run_tasks`` /
    ``stop``).  An orchestrated multi-worker sweep starts one for its
    pending tasks and stops it afterwards; the sweep daemon owns one for
    its whole lifetime, so consecutive jobs over the same instances hit
    warm :class:`WorkerRuntime` caches in its workers.  Tasks are fed with
    a one-task window per worker (a worker only receives its next task
    after returning the previous one), which keeps cancellation prompt —
    at most ``workers`` tasks are in flight when a job is aborted — and
    lets :meth:`run_tasks` keep each instance group in compile order on
    its worker.
    """

    def __init__(
        self,
        workers: int | None = 1,
        telemetry: bool = False,
    ) -> None:
        self.workers = resolve_workers(workers)
        #: When True every worker traces its tasks and streams back a
        #: telemetry summary per result (rows stay bit-identical; only the
        #: :data:`~repro.service.tasks.TIMING_FIELDS`-masked fields differ).
        self.telemetry = telemetry
        self._context = mp.get_context()
        self._outbox = self._context.Queue()
        self._inboxes: list = [None] * self.workers
        self._processes: list = [None] * self.workers

    # -- lifecycle -----------------------------------------------------
    def start(self) -> None:
        """Spawn every worker slot that is not alive (``run_tasks`` too)."""
        for slot, process in enumerate(self._processes):
            if process is None or not process.is_alive():
                self._spawn(slot)

    def _spawn(self, slot: int) -> None:
        # A fresh inbox per (re)spawn: a worker that died mid-job may leave
        # an undelivered task in its old queue, which a respawned process
        # must never pick up on behalf of a failed job.
        inbox = self._context.Queue()
        process = self._context.Process(
            target=_service_worker_main,
            args=(
                slot,
                inbox,
                self._outbox,
                os.getpid(),  # captured pre-fork: the orphan baseline
                self.telemetry,
            ),
            daemon=True,
        )
        process.start()
        self._inboxes[slot] = inbox
        self._processes[slot] = process

    def stop(self) -> None:
        """Send sentinels and reap every worker (terminate stragglers)."""
        for inbox, process in zip(self._inboxes, self._processes):
            if process is not None and process.is_alive():
                inbox.put(None)
        for process in self._processes:
            if process is not None:
                process.join(timeout=5.0)
                if process.is_alive():
                    process.terminate()
                    process.join()
        self._processes = [None] * self.workers

    # -- execution -----------------------------------------------------
    def run_tasks(self, tasks, on_result, should_abort=None, on_telemetry=None) -> None:
        """Execute ``tasks``; ``on_result(index, spec_hash, kind, payload)``
        fires in completion order (the caller journals and reassembles by
        index).  Dispatch goes through an :class:`~repro.service.tasks.
        AffinityTaskQueue`: each worker drains the instance group it has
        checked out, in compile order, then checks out the heaviest pending
        group.  A worker only receives its next task after returning the
        previous one, which keeps cancellation prompt and hands a pending
        group to whichever worker frees up first.

        ``should_abort()`` is polled before the first dispatch and after
        every completion: once it returns True no further task is
        dispatched, in-flight results are still collected (and journaled
        by the caller — finished work is never discarded).  A task error
        or a worker death aborts dispatch the same way and is raised after
        the in-flight tasks drain; the pool itself survives (dead slots
        respawn) for the next job.

        ``on_telemetry(summary)`` (optional) fires with each worker-side
        telemetry summary when the pool runs with ``telemetry=True``.
        When the *orchestrator's* telemetry has tracing enabled, dispatch
        lifecycle spans (``task.dispatch``: queued-to-done per task, with
        worker slot) are additionally recorded on that tracer, alongside
        the queue's dispatch counter.
        """
        if not tasks or (should_abort is not None and should_abort()):
            return
        self.start()
        queue = AffinityTaskQueue(tasks, self.workers)
        tracer = get_telemetry().tracer
        inflight_spans: dict[int, object] = {}
        busy = [False] * self.workers
        outstanding = 0

        def _dispatch_next(slot: int) -> None:
            nonlocal outstanding
            task = queue.next_task(slot)
            if task is None:
                return
            self._inboxes[slot].put(task)
            busy[slot] = True
            outstanding += 1
            if tracer.enabled:
                inflight_spans[slot] = tracer.begin(
                    "task.dispatch", worker=slot, index=task.index, kind=task.kind
                )

        for slot in range(self.workers):
            _dispatch_next(slot)
        aborted = False
        error: str | None = None
        while outstanding:
            try:
                message = self._outbox.get(timeout=1.0)
            except Empty:
                dead = [
                    slot
                    for slot, process in enumerate(self._processes)
                    if busy[slot] and not process.is_alive()
                ]
                if not dead:
                    continue
                # The dying worker may have flushed its final result
                # between our timeout and the liveness check.
                try:
                    message = self._outbox.get_nowait()
                except Empty:
                    # A dead slot's task fails like a task error: dispatch
                    # stops and its siblings still drain, so none of their
                    # results can leak into the next run_tasks call.
                    message = (dead[0], "died", None, None, None, None, None)
            worker_id, status, index, spec_hash, kind, payload, summary = message
            outstanding -= 1
            busy[worker_id] = False
            span = inflight_spans.pop(worker_id, None)
            if span is not None:
                span.finish(status=status)
            if status == "ok":
                on_result(index, spec_hash, kind, payload)
                if summary is not None and on_telemetry is not None:
                    on_telemetry(summary)
            else:
                if error is None:
                    error = (
                        f"sweep worker {worker_id} died without reporting a result"
                        if status == "died"
                        else f"sweep task {index} failed in a worker:\n{payload}"
                    )
                aborted = True
            if not aborted and should_abort is not None and should_abort():
                aborted = True
            if not aborted:
                _dispatch_next(worker_id)
        if error is not None:
            raise RuntimeError(error)
