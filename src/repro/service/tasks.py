"""Sweep compilation: turning any sweep into instance-affine task shards.

Every sweep entry point of the repository — :func:`repro.experiments.runner.
run_sweep` over :class:`~repro.experiments.runner.RunSpec` grids, the
robustness suite's operator x family x shock chains, the SumNCG study's
(n, α, k, seed) grid, the extension studies' plain ``func(item)`` runs —
reduces to the same shape: a flat list of independent, picklable work
items.  This module compiles each of them into
:class:`SweepTask` records carrying three identities:

``instance_key``
    Hash of exactly the inputs that determine the *initial instance*
    (family, size, seed, ownership rule).  Tasks sharing it are placed on
    the same worker shard, in sequence, so the worker's instance cache —
    and, for instances above the shared-memory threshold, the one
    ``multiprocessing.shared_memory`` copy — is hit instead of regenerating
    (or re-pickling) the graph per task.
``session_key``
    Hash of everything that determines a warm engine session (instance
    plus game, solver, round cap).  Robustness operator tasks of one
    instance cell share it: the first task converges the pre-shock base
    once, the rest ride the live engine via ``restore_profile``.
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
from dataclasses import asdict, dataclass
from random import Random
from typing import Any

from repro.core.metrics import ProfileMetrics
from repro.experiments.runner import RunResult, RunSpec
from repro.obs import Telemetry, get_telemetry

__all__ = [
    "SweepTask",
    "TELEMETRY_SUMMARY_FIELDS",
    "TIMING_FIELDS",
    "compile_run_specs",
    "compile_sum_tasks",
    "compile_robustness_tasks",
    "compile_calls",
    "sweep_hash",
    "shard_tasks",
    "group_weight",
    "AffinityTaskQueue",
    "simulate_dispatch",
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
    tasks were sharded or which worker finished first.
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
    land on the same worker and reuse its cached (or shared-memory) copy.
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
    plus item) is also its one-task affinity group.
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
# Sharding and dispatch
# ----------------------------------------------------------------------
def group_weight(group: list[SweepTask]) -> int:
    """Estimated cost of one instance-affine task group.

    ``instance node count × task count`` — the per-task dynamics cost grows
    with the instance size (view BFS, cover searches), so a 4000-node
    instance's ten tasks should not be balanced as if they matched ten tasks
    on a 50-node instance.  Still an *estimate*: α/k skew is invisible to it,
    which is exactly the residual imbalance work stealing mops up at runtime.
    """
    return instance_size(group[0]) * len(group)


def _affinity_groups(
    tasks: list[SweepTask], order_seed: int | None = None
) -> tuple[dict[str, list[SweepTask]], list[str]]:
    """Group tasks by ``instance_key``; keys ordered heaviest-first.

    Compile order is preserved inside a group (session-sharing tasks stay
    consecutive).  ``order_seed`` deterministically shuffles the key order —
    the equivalence tests use it to prove assignment never affects results.
    """
    groups: dict[str, list[SweepTask]] = {}
    arrival: list[str] = []
    for task in tasks:
        if task.instance_key not in groups:
            groups[task.instance_key] = []
            arrival.append(task.instance_key)
    for task in tasks:
        groups[task.instance_key].append(task)
    keys = sorted(arrival, key=lambda key: (-group_weight(groups[key]), key))
    if order_seed is not None:
        Random(order_seed).shuffle(keys)
    return groups, keys


def shard_tasks(
    tasks: list[SweepTask], num_shards: int, order_seed: int | None = None
) -> list[list[SweepTask]]:
    """Split tasks into ``num_shards`` static shards with instance affinity.

    Tasks are grouped by ``instance_key`` (preserving compile order inside
    a group, so session-sharing tasks stay consecutive) and groups are
    greedily balanced onto shards by estimated :func:`group_weight`
    (instance node count × task count), heaviest first.  Shards may come
    back empty when there are fewer groups than shards.  Results never
    depend on the assignment: every task is self-contained and reassembled
    by ``index`` — ``order_seed`` deterministically shuffles the assignment
    order, which the equivalence tests use to prove exactly that.

    This static split is the execution plan for ``workers=1`` and
    in-process sweeps; the process pool uses the same grouping/assignment
    as soft affinity *hints* via :class:`AffinityTaskQueue`, whose
    ``steal=False`` mode reproduces these shards exactly.
    """
    if not tasks:
        return []
    if num_shards <= 1:
        return [list(tasks)]
    groups, keys = _affinity_groups(tasks, order_seed)
    shards: list[list[SweepTask]] = [[] for _ in range(num_shards)]
    loads = [0] * num_shards
    for key in keys:
        target = min(range(num_shards), key=lambda i: (loads[i], i))
        shards[target].extend(groups[key])
        loads[target] += group_weight(groups[key])
    return shards


class AffinityTaskQueue:
    """Central dispatcher: soft instance affinity plus whole-group stealing.

    The static planner above *assigns* groups; this queue merely *hints*
    them.  Each worker drains its own groups in assignment order and, when
    it runs dry (``steal=True``), steals the **oldest pending group** from
    the victim with the largest remaining estimated load — whole
    instance-groups move, never single tasks, so the in-sequence-per-
    instance invariant (warm sessions, shared-memory attach, journal
    ordering) survives any interleaving.  A group being executed is checked
    out to its worker and can no longer move.

    Dispatch is deterministic given the sequence of :meth:`next_task`
    calls; results never depend on that sequence because every task is
    self-contained and reassembled by canonical index — with
    ``steal=False`` the dispatch degenerates to exactly the static shards
    of :func:`shard_tasks`.
    """

    def __init__(
        self,
        tasks: list[SweepTask],
        num_workers: int,
        steal: bool = True,
        order_seed: int | None = None,
        telemetry: Telemetry | None = None,
    ) -> None:
        if num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        self.num_workers = num_workers
        self.steal = steal
        groups, keys = _affinity_groups(list(tasks), order_seed)
        self._groups = groups
        # Same greedy weighted assignment as the static planner — these are
        # the soft affinity hints.
        self._pending: list[list[str]] = [[] for _ in range(num_workers)]
        loads = [0] * num_workers
        for key in keys:
            target = min(range(num_workers), key=lambda i: (loads[i], i))
            self._pending[target].append(key)
            loads[target] += group_weight(groups[key])
        self._cursor: dict[str, int] = {key: 0 for key in keys}
        self._active: list[str | None] = [None] * num_workers
        # Instrumentation (read by tests and the steal benchmark) — private
        # registry children behind read-through properties, so dispatch
        # counts also aggregate into the process-wide metrics.
        dispatch = (telemetry or get_telemetry()).registry.counter(
            "repro_dispatch_total",
            help="Task-queue dispatch decisions",
            labelnames=("op",),
        )
        self._m_steals = dispatch.child(op="steal")
        self._m_dispatched = dispatch.child(op="dispatch")

    @property
    def steals(self) -> int:
        return self._m_steals.value

    @property
    def dispatched(self) -> int:
        return self._m_dispatched.value

    def _pending_load(self, worker: int) -> int:
        return sum(group_weight(self._groups[key]) for key in self._pending[worker])

    def remaining(self) -> int:
        """Tasks not yet handed out (pending groups + checked-out tails)."""
        return sum(
            len(self._groups[key]) - self._cursor[key] for key in self._cursor
        )

    def _next_from_group(self, worker: int, key: str) -> SweepTask:
        group = self._groups[key]
        task = group[self._cursor[key]]
        self._cursor[key] += 1
        self._active[worker] = key if self._cursor[key] < len(group) else None
        self._m_dispatched.inc()
        return task

    def next_task(self, worker: int) -> SweepTask | None:
        """The next task ``worker`` should run, or ``None`` when it is done.

        Order of preference: finish the checked-out group, then the oldest
        of the worker's own pending groups, then (``steal=True``) the
        oldest pending group of the most-loaded victim.  ``None`` is
        terminal for the worker: every remaining task belongs to a group
        checked out elsewhere.
        """
        active = self._active[worker]
        if active is not None:
            return self._next_from_group(worker, active)
        if self._pending[worker]:
            return self._next_from_group(worker, self._pending[worker].pop(0))
        if not self.steal:
            return None
        victim = max(
            (w for w in range(self.num_workers) if self._pending[w]),
            key=lambda w: (self._pending_load(w), -w),
            default=None,
        )
        if victim is None:
            return None
        self._m_steals.inc()
        return self._next_from_group(worker, self._pending[victim].pop(0))


def simulate_dispatch(
    tasks: list[SweepTask],
    num_workers: int,
    durations: dict[str, float],
    steal: bool = True,
    order_seed: int | None = None,
) -> tuple[float, list[list[int]]]:
    """Virtual-time replay of the dispatch policy over measured durations.

    ``durations`` maps ``spec_hash`` to the task's execution time (measured
    once, or synthetic).  The replay drives :class:`AffinityTaskQueue`
    exactly like the worker pool does — a worker requests its next task the
    moment its previous one completes — but on a deterministic virtual
    clock, so static-vs-stealing makespans can be compared exactly, on any
    machine, independent of how many physical cores happen to exist.

    Returns ``(makespan, assignments)`` with ``assignments[worker]`` the
    canonical task indices the worker executed, in dispatch order.
    """
    import heapq

    queue = AffinityTaskQueue(tasks, num_workers, steal=steal, order_seed=order_seed)
    events = [(0.0, worker) for worker in range(num_workers)]
    heapq.heapify(events)
    assignments: list[list[int]] = [[] for _ in range(num_workers)]
    makespan = 0.0
    while events:
        now, worker = heapq.heappop(events)
        task = queue.next_task(worker)
        if task is None:
            makespan = max(makespan, now)
            continue
        assignments[worker].append(task.index)
        heapq.heappush(events, (now + durations[task.spec_hash], worker))
    return makespan, assignments


def strip_timing_fields(rows: list[dict]) -> list[dict]:
    """Rows without the wall-clock fields (for bit-identity comparisons)."""
    return [
        {key: value for key, value in row.items() if key not in TIMING_FIELDS}
        for row in rows
    ]


# ----------------------------------------------------------------------
# Instance builders (parent-side pre-materialisation for shared memory)
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

    Used both by the worker-side instance cache and by the orchestrator
    when it pre-materialises a large, multiply-used instance into shared
    memory.
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
