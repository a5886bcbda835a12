"""Sweep compilation and dispatch: any sweep as warm-session units.

Every sweep entry point of the repository — :func:`repro.experiments.runner.
run_sweep` over :class:`~repro.experiments.runner.RunSpec` grids, the
robustness suite's operator x family x shock chains, the SumNCG study's
(n, α, k, seed) grid, the extension studies' plain ``func(item)`` runs —
reduces to the same shape: a flat list of independent, picklable work
items.  This module compiles each of them into
:class:`SweepTask` records carrying three identities:

``instance_key``
    Hash of exactly the inputs that determine the *initial instance*
    (family, size, seed, ownership rule).  Tasks sharing it form one
    instance group; :class:`AffinityTaskQueue` queues a group's session
    units next to each other, so a worker that runs any of them builds
    the instance once into its instance cache and its later units of the
    group hit the cache instead of regenerating (or re-pickling) the graph.
``session_key``
    Hash of everything that determines a warm engine session (instance
    plus game, solver, round cap), or ``""`` for a self-contained task.
    Robustness operator tasks of one instance cell share it and form one
    dispatch unit that runs on a single worker, in compile order: the
    first task converges the pre-shock base once, the rest ride the live
    engine via ``restore_profile``.
``spec_hash``
    Content hash of the complete task description — the journal identity
    under which a completed result is persisted and skipped on ``--resume``.

Results are journaled as JSON; the ``encode_result`` / ``decode_result``
codecs are exact inverses on every deterministic field (``inf``/``nan``
floats travel as typed marker objects, so even a string field literally
holding ``"inf"`` round-trips unchanged), so a resumed sweep reproduces
the uninterrupted row set bit for bit.  The only
non-deterministic row fields any sweep produces are the wall-clock
measurements named in :data:`TIMING_FIELDS`; :func:`strip_timing_fields`
removes them for row-set comparisons.
"""

from __future__ import annotations

import hashlib
from collections import deque
from dataclasses import asdict, dataclass
from typing import Any

from repro.core.metrics import ProfileMetrics
from repro.experiments.runner import RunResult, RunSpec
from repro.obs import get_telemetry

__all__ = [
    "SweepTask",
    "TELEMETRY_SUMMARY_FIELDS",
    "TIMING_FIELDS",
    "compile_run_specs",
    "compile_sum_tasks",
    "compile_robustness_tasks",
    "compile_calls",
    "sweep_hash",
    "group_weight",
    "AffinityTaskQueue",
    "strip_timing_fields",
    "instance_builder",
    "instance_size",
    "encode_result",
    "decode_result",
    "stamp_telemetry_fields",
]

#: Telemetry summary fields stamped onto row-shaped results when a sweep
#: runs with tracing enabled (absent otherwise).  Wall-clock valued — and
#: present only on telemetry-on rows — so bit-identity comparisons and
#: ``--resume`` equality checks must treat them exactly like the timing
#: fields below.
TELEMETRY_SUMMARY_FIELDS: frozenset[str] = frozenset(
    {"telemetry_wall_s", "telemetry_span_count"}
)

#: Wall-clock row fields — the only sweep outputs that legitimately differ
#: between two runs of the same spec (they differ between two one-worker
#: runs just the same).  Everything else must be bit-identical.
TIMING_FIELDS: frozenset[str] = (
    frozenset({"warm_s", "cold_s", "warm_speedup"}) | TELEMETRY_SUMMARY_FIELDS
)


def content_hash(*parts: Any) -> str:
    """Stable content hash of a heterogeneous description tuple."""
    digest = hashlib.sha256()
    for part in parts:
        digest.update(repr(part).encode())
        digest.update(b"\x1f")
    return digest.hexdigest()[:24]


@dataclass(frozen=True)
class SweepTask:
    """One independent unit of sweep work (picklable).

    ``index`` is the task's position in the canonical sweep order — results
    are reassembled by it, so the emitted row order never depends on how
    tasks were dispatched or which worker finished first.
    """

    kind: str  #: "run_spec" | "sum" | "robustness" | "call"
    index: int
    instance_key: str
    session_key: str
    payload: tuple
    spec_hash: str


# ----------------------------------------------------------------------
# Compilation
# ----------------------------------------------------------------------
def compile_run_specs(specs: list[RunSpec]) -> list[SweepTask]:
    """One task per :class:`RunSpec`, grouped by physical instance.

    Specs differing only in (α, k, solver, ordering …) share their initial
    instance — grids sweep those dimensions over the same seeds — so they
    are queued together and a worker that runs several of them reuses its
    cached copy.  Each spec is a dispatch unit of its own.
    """
    tasks: list[SweepTask] = []
    for index, spec in enumerate(specs):
        instance = content_hash(
            "instance", spec.family, spec.n, spec.p, spec.seed, spec.ownership
        )
        tasks.append(
            SweepTask(
                kind="run_spec",
                index=index,
                instance_key=instance,
                session_key="",  # independent dynamics: no engine reuse possible
                payload=(spec,),
                spec_hash=content_hash("run_spec", tuple(sorted(asdict(spec).items()))),
            )
        )
    return tasks


def compile_sum_tasks(config) -> list[SweepTask]:
    """Per-run tasks of a :class:`~repro.experiments.extensions.sum_dynamics.
    SumDynamicsConfig` grid, in canonical (n, α, k, seed) order."""
    cfg = config
    tasks: list[SweepTask] = []
    index = 0
    for n in cfg.sizes:
        for alpha in cfg.alphas:
            for k in cfg.ks:
                for seed in range(cfg.settings.num_seeds):
                    payload = (
                        n,
                        alpha,
                        k,
                        cfg.settings.base_seed + seed,
                        cfg.settings.max_rounds,
                    )
                    tasks.append(
                        SweepTask(
                            kind="sum",
                            index=index,
                            instance_key=content_hash(
                                "instance", "sum-tree", n, payload[3]
                            ),
                            session_key="",
                            payload=payload,
                            spec_hash=content_hash("sum", payload),
                        )
                    )
                    index += 1
    return tasks


def compile_robustness_tasks(config) -> list[SweepTask]:
    """Per-(instance cell, operator) tasks of a robustness study.

    One task per operator chain of each instance cell, compiled
    cell-major with operators inner (the study's row order); a cell's
    tasks share one ``session_key``, so a warm worker converges the base
    session once and replays it for every operator chain.  The first operator task of each cell carries
    ``emit_base=True``: it owns the cell's honest unconverged-base row and
    (when certified) the base-equilibrium checkpoint document.
    """
    from repro.experiments.extensions.robustness import _instance_cells

    cfg = config
    tasks: list[SweepTask] = []
    index = 0
    for family, alpha, k, seed, game in _instance_cells(cfg):
        session = content_hash(
            "session",
            family,
            cfg.n,
            alpha,
            k,
            seed,
            game,
            cfg.settings.solver,
            cfg.settings.max_rounds,
        )
        instance = content_hash("instance", "extension", family, cfg.n, seed)
        for position, operator in enumerate(cfg.operators):
            payload = (
                family,
                cfg.n,
                alpha,
                k,
                seed,
                operator,
                cfg.shocks_per_instance,
                cfg.intensity,
                cfg.settings.solver,
                cfg.settings.max_rounds,
                game,
                position == 0,  # emit_base
            )
            tasks.append(
                SweepTask(
                    kind="robustness",
                    index=index,
                    instance_key=instance,
                    session_key=session,
                    payload=payload,
                    spec_hash=content_hash(
                        "robustness", payload[:10], game, payload[11]
                    ),
                )
            )
            index += 1
    return tasks


def compile_calls(func, items) -> list[SweepTask]:
    """One ``"call"`` task per item; executing it returns ``func(item)``.

    ``func`` is pickled by name, so it must be a module-level function.
    Calls share no instance or session: a call's identity (function name
    plus item) is also its one-task instance group.
    """
    name = f"{func.__module__}.{func.__qualname__}"
    tasks: list[SweepTask] = []
    for index, item in enumerate(items):
        key = content_hash("call", name, item)
        tasks.append(
            SweepTask(
                kind="call",
                index=index,
                instance_key=key,
                session_key="",
                payload=(func, item),
                spec_hash=key,
            )
        )
    return tasks


def sweep_hash(tasks: list[SweepTask]) -> str:
    """Identity of a whole compiled sweep (guards journal resumes)."""
    return content_hash("sweep", len(tasks), tuple(t.spec_hash for t in tasks))


# ----------------------------------------------------------------------
# Dispatch
# ----------------------------------------------------------------------
def group_weight(group: list[SweepTask]) -> int:
    """Estimated cost of one instance group (orders the queue).

    ``instance node count × task count`` — the per-task dynamics cost grows
    with the instance size (view BFS, cover searches), so a 4000-node
    instance's ten tasks should not be ordered as if they matched ten tasks
    on a 50-node instance.  Still an *estimate*: α/k skew is invisible to
    it, which the central queue absorbs by handing units out on demand.
    """
    return instance_size(group[0]) * len(group)


class AffinityTaskQueue:
    """Central dispatcher: one queue of warm-session units, heaviest first.

    Tasks are grouped by ``instance_key`` (compile order kept inside a
    group) and the groups are ordered by ``(-group_weight, instance_key)``.
    Each group splits into *units*: the tasks sharing a non-empty
    ``session_key`` form one unit, every sessionless task is a unit of its
    own.  The units are queued group by group.  A worker that asks for
    work continues the unit it has checked out; otherwise it checks out
    the next pending unit.  So a warm session runs on one worker, in
    compile order, under any interleaving of requests, while the
    independent cells of one instance spread over every idle worker.  A
    group's units are adjacent in the queue, so a worker builds each
    instance at most once, and one worker drains the groups in order, each
    in compile order.  This is greedy LPT list scheduling (Graham 1969):
    within 4/3 of the optimal makespan on true weights.

    Dispatch is deterministic given the sequence of :meth:`next_task`
    calls; results never depend on that sequence because every task is
    self-contained and reassembled by canonical index.
    """

    def __init__(self, tasks: list[SweepTask], num_workers: int) -> None:
        if num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        groups: dict[str, list[SweepTask]] = {}
        for task in tasks:
            groups.setdefault(task.instance_key, []).append(task)
        self._pending: deque[list[SweepTask]] = deque()
        for group in sorted(
            groups.values(),
            key=lambda group: (-group_weight(group), group[0].instance_key),
        ):
            units: dict[str | int, list[SweepTask]] = {}
            for position, task in enumerate(group):
                units.setdefault(task.session_key or position, []).append(task)
            self._pending.extend(units.values())
        self._active: list[deque] = [deque() for _ in range(num_workers)]
        # Instrumentation (read by tests) — a registry child behind a
        # read-through property, so dispatch counts also aggregate into the
        # process-wide metrics.
        self._m_dispatched = (
            get_telemetry()
            .registry.counter(
                "repro_dispatch_total",
                help="Task-queue dispatch decisions",
                labelnames=("op",),
            )
            .child(op="dispatch")
        )

    @property
    def dispatched(self) -> int:
        return self._m_dispatched.value

    def next_task(self, worker: int) -> SweepTask | None:
        """The next task ``worker`` should run, or ``None`` when it is done.

        Continues the worker's checked-out unit in compile order, else
        checks out the next pending unit.  ``None`` is terminal for the
        worker: every remaining task belongs to a unit checked out
        elsewhere.
        """
        active = self._active[worker]
        if not active:
            if not self._pending:
                return None
            active.extend(self._pending.popleft())
        self._m_dispatched.inc()
        return active.popleft()


def strip_timing_fields(rows: list[dict]) -> list[dict]:
    """Rows without the wall-clock fields (for bit-identity comparisons)."""
    return [
        {key: value for key, value in row.items() if key not in TIMING_FIELDS}
        for row in rows
    ]


# ----------------------------------------------------------------------
# Instance builders (the worker-side instance cache; the size estimate)
# ----------------------------------------------------------------------
def instance_size(task: SweepTask) -> int:
    """Expected player count of the task's initial instance (pre-build)."""
    if task.kind == "run_spec":
        return task.payload[0].n
    if task.kind == "sum":
        return task.payload[0]
    if task.kind == "robustness":
        return task.payload[1]
    if task.kind == "call":
        return 1
    raise ValueError(f"unknown task kind {task.kind!r}")


def instance_builder(task: SweepTask):
    """Zero-argument builder of the task's initial instance.

    Called by :class:`~repro.service.workers.WorkerRuntime` on an instance
    cache miss: each worker that runs one of an instance's units builds it.
    """
    if task.kind == "run_spec":
        from repro.experiments.runner import build_instance

        spec = task.payload[0]
        return lambda: build_instance(spec)
    if task.kind == "sum":
        from repro.graphs.generators.trees import random_owned_tree

        n, _, _, seed, _ = task.payload
        return lambda: random_owned_tree(n, seed=seed)
    if task.kind == "robustness":
        from repro.experiments.extensions.instances import build_extension_instance

        family, n, _, _, seed = task.payload[:5]
        return lambda: build_extension_instance(family, n, seed)
    raise ValueError(f"unknown task kind {task.kind!r}")


# ----------------------------------------------------------------------
# Journal codecs (JSON-safe, exact inverses on deterministic fields)
# ----------------------------------------------------------------------
def _normalise_value(value):
    """inf/nan floats and tuples become JSON-safe, everything else passes.

    Non-finite floats are wrapped in a typed marker object rather than the
    row store's bare ``"inf"`` strings, so a *string-valued* field that
    happens to hold ``"inf"``/``"nan"`` survives the round trip as a
    string — the codec stays an exact inverse on every scalar row value
    (rows are flat, so a dict value can only be this marker).
    """
    import math

    if isinstance(value, float) and not math.isfinite(value):
        return {"~float": repr(value)}
    if isinstance(value, tuple):
        return list(value)
    return value


def _parse_value(value):
    """Inverse of :func:`_normalise_value`."""
    if isinstance(value, dict) and set(value) == {"~float"}:
        return float(value["~float"])
    return value


def _jsonify_row(row: dict) -> dict:
    return {key: _normalise_value(value) for key, value in row.items()}


def _parse_row(row: dict) -> dict:
    return {key: _parse_value(value) for key, value in row.items()}


def _encode_run_result(result: RunResult) -> dict:
    def metrics_payload(metrics: ProfileMetrics | None):
        return None if metrics is None else _jsonify_row(metrics.as_dict())

    return {
        "spec": _jsonify_row(asdict(result.spec)),
        "converged": result.converged,
        "cycled": result.cycled,
        "rounds": result.rounds,
        "total_changes": result.total_changes,
        "certified": result.certified,
        "certified_exact": result.certified_exact,
        "initial_metrics": metrics_payload(result.initial_metrics),
        "final_metrics": metrics_payload(result.final_metrics),
    }


def _decode_run_result(payload: dict) -> RunResult:
    def metrics(entry):
        return None if entry is None else ProfileMetrics(**_parse_row(entry))

    return RunResult(
        spec=RunSpec(**_parse_row(payload["spec"])),
        converged=payload["converged"],
        cycled=payload["cycled"],
        rounds=payload["rounds"],
        total_changes=payload["total_changes"],
        initial_metrics=metrics(payload["initial_metrics"]),
        final_metrics=metrics(payload["final_metrics"]),
        certified=payload["certified"],
        certified_exact=payload["certified_exact"],
    )


def encode_result(task: SweepTask, result) -> Any:
    """Encode a raw task result into its JSON-safe journal payload."""
    if task.kind == "run_spec":
        return _encode_run_result(result)
    if task.kind == "sum":
        return _jsonify_row(result)
    if task.kind == "robustness":
        rows, base_document = result
        return {"rows": [_jsonify_row(row) for row in rows], "base": base_document}
    if task.kind == "call":
        return result
    raise ValueError(f"unknown task kind {task.kind!r}")


def stamp_telemetry_fields(
    kind: str, payload: Any, wall_s: float, span_count: int
) -> Any:
    """Stamp :data:`TELEMETRY_SUMMARY_FIELDS` onto row-shaped payloads.

    Only the row-dict payload kinds gain fields (``run_spec`` payloads
    decode through a fixed dataclass, whose codec ignores extras); the
    stamped fields are wall-clock valued and therefore stripped by
    :func:`strip_timing_fields` wherever rows are compared bit-for-bit.
    """
    fields = {
        "telemetry_wall_s": wall_s,
        "telemetry_span_count": span_count,
    }
    if kind == "sum":
        return {**payload, **fields}
    if kind == "robustness":
        return {
            **payload,
            "rows": [{**row, **fields} for row in payload["rows"]],
        }
    return payload


def decode_result(kind: str, payload: Any):
    """Inverse of :func:`encode_result` for the given task kind.

    Fresh results are round-tripped through the same codec pair as
    journaled ones, so a resumed sweep and an uninterrupted one assemble
    byte-identical outputs by construction.
    """
    if kind == "run_spec":
        return _decode_run_result(payload)
    if kind == "sum":
        return _parse_row(payload)
    if kind == "robustness":
        return ([_parse_row(row) for row in payload["rows"]], payload["base"])
    if kind == "call":
        return payload
    raise ValueError(f"unknown task kind {kind!r}")
