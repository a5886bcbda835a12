"""Group dispatch: equivalence, affinity invariants, makespan.

The load-bearing property mirrors the orchestration suite's: no
interleaving of worker requests may change the row set.  On top of that
the central queue has its own invariants: whole instance groups go to one
worker (never single tasks), tasks inside a group are handed out in
compile order, groups leave heaviest-first, and on the straggler grid
(deceptively light small instances next to deceptively heavy large ones)
handing groups out on demand beats the static weighted plan's makespan.
"""

import heapq

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.experiments.runner import RunSpec, run_single
from repro.service.api import ServiceConfig, orchestrate
from repro.service.tasks import (
    AffinityTaskQueue,
    compile_run_specs,
    decode_result,
    encode_result,
    group_weight,
)
from repro.service.workers import PersistentWorkerPool, WorkerRuntime


def _specs(num_seeds: int = 3) -> list[RunSpec]:
    return [
        RunSpec(family="tree", n=10, alpha=alpha, k=k, seed=seed, solver="greedy")
        for alpha in (0.5, 2.0)
        for k in (2, 3)
        for seed in range(num_seeds)
    ]


def _straggler_specs() -> list[RunSpec]:
    """One large instance per fast worker, many small ones beside them.

    The large groups carry huge estimated weight (n=400), the small groups
    tiny weight (n=10) — so a static weighted plan parks every small group
    on the one worker not holding a large instance.  Durations are
    assigned synthetically in the tests: weight and true cost are
    deliberately anti-correlated, the blind spot on-demand dispatch covers.
    """
    large = [
        RunSpec(family="tree", n=400, alpha=0.5, k=2, seed=seed, solver="greedy")
        for seed in range(2)
    ]
    small = [
        RunSpec(family="tree", n=10, alpha=0.5, k=2, seed=100 + seed, solver="greedy")
        for seed in range(8)
    ]
    return large + small


def _groups(tasks) -> dict[str, list[int]]:
    """Compile-order task indices per instance group."""
    groups: dict[str, list[int]] = {}
    for task in tasks:
        groups.setdefault(task.instance_key, []).append(task.index)
    return groups


def _static_lpt_plan(tasks, workers: int) -> list[list]:
    """A static weighted plan: heaviest group first onto the lightest shard."""
    groups: dict[str, list] = {}
    for task in tasks:
        groups.setdefault(task.instance_key, []).append(task)
    shards: list[list] = [[] for _ in range(workers)]
    loads = [0] * workers
    for key in sorted(groups, key=lambda key: (-group_weight(groups[key]), key)):
        target = min(range(workers), key=lambda i: (loads[i], i))
        shards[target].extend(groups[key])
        loads[target] += group_weight(groups[key])
    return shards


def _replay(queue: AffinityTaskQueue, workers: int, durations) -> tuple[float, list[list]]:
    """Virtual-clock replay: a worker asks again the moment its task ends."""
    events = [(0.0, worker) for worker in range(workers)]
    assignments: list[list] = [[] for _ in range(workers)]
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


class TestGroupOrder:
    def test_group_weight_is_nodes_times_tasks(self):
        tasks = compile_run_specs(_specs(num_seeds=1))
        groups: dict[str, list] = {}
        for task in tasks:
            groups.setdefault(task.instance_key, []).append(task)
        for members in groups.values():
            assert group_weight(members) == 10 * len(members)

    def test_groups_leave_heaviest_first(self):
        # Weights: one 30-node four-task group (120), one 100-node
        # single-task group (100), four 10-node two-task groups (20 each) —
        # by bare cardinality the 100-node group would come last.
        specs = [RunSpec(family="tree", n=100, alpha=0.5, k=2, seed=0, solver="greedy")]
        specs += [
            RunSpec(family="tree", n=10, alpha=alpha, k=2, seed=seed, solver="greedy")
            for seed in range(1, 5)
            for alpha in (0.5, 2.0)
        ]
        specs += [
            RunSpec(family="tree", n=30, alpha=alpha, k=k, seed=9, solver="greedy")
            for alpha in (0.5, 2.0)
            for k in (2, 3)
        ]
        tasks = compile_run_specs(specs)
        groups = _groups(tasks)
        size = {task.instance_key: task.payload[0].n for task in tasks}
        queue = AffinityTaskQueue(tasks, 1)
        drained = []
        while (task := queue.next_task(0)) is not None:
            drained.append(task)
        first_seen = list(dict.fromkeys(task.instance_key for task in drained))
        assert [size[key] for key in first_seen] == [30, 100, 10, 10, 10, 10]
        # Equal weights fall back to instance_key order.
        assert first_seen[2:] == sorted(key for key in groups if size[key] == 10)
        assert [task.index for task in drained] == [
            index for key in first_seen for index in groups[key]
        ]

    def test_empty_queue_and_worker_count(self):
        assert AffinityTaskQueue([], 4).next_task(3) is None
        with pytest.raises(ValueError, match="num_workers"):
            AffinityTaskQueue(compile_run_specs(_specs()), 0)


class TestAffinityTaskQueue:
    @settings(
        max_examples=30,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(workers=st.integers(min_value=2, max_value=5), data=st.data())
    def test_any_interleaving_dispatches_each_group_once_in_order(self, workers, data):
        tasks = compile_run_specs(_specs())
        queue = AffinityTaskQueue(tasks, workers)
        before = queue.dispatched
        dispatched: list = []
        owner: dict[str, int] = {}
        per_group: dict[str, list[int]] = {}
        active = set(range(workers))
        while active:
            worker = data.draw(st.sampled_from(sorted(active)), label="worker")
            task = queue.next_task(worker)
            if task is None:
                active.discard(worker)
                continue
            dispatched.append(task)
            # Whole groups go to one worker: one worker per instance_key.
            assert owner.setdefault(task.instance_key, worker) == worker
            per_group.setdefault(task.instance_key, []).append(task.index)
        assert sorted(t.index for t in dispatched) == [t.index for t in tasks]
        assert queue.dispatched - before == len(tasks)
        # In-sequence-per-instance: dispatch order inside a group is compile
        # order (warm sessions depend on it).
        assert per_group == _groups(tasks)

    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(workers=st.integers(min_value=2, max_value=4), data=st.data())
    def test_interleaved_runtimes_equal_serial_rows(self, workers, data):
        specs = _specs(num_seeds=2)
        tasks = compile_run_specs(specs)
        serial = [run_single(spec) for spec in specs]
        queue = AffinityTaskQueue(tasks, workers)
        runtimes = [WorkerRuntime() for _ in range(workers)]
        decoded: dict[int, object] = {}
        active = set(range(workers))
        while active:
            worker = data.draw(st.sampled_from(sorted(active)), label="worker")
            task = queue.next_task(worker)
            if task is None:
                active.discard(worker)
                continue
            payload = encode_result(task, runtimes[worker].execute(task))
            decoded[task.index] = decode_result(task.kind, payload)
        assert [decoded[i] for i in range(len(specs))] == serial
        assert sum(r.instances_built for r in runtimes) == len(_groups(tasks))


class TestStragglerScenario:
    DURATION_SMALL = 4.0  # deceptively light: weight 10, truly slow
    DURATION_LARGE = 6.0  # deceptively heavy: weight 400, truly moderate

    def test_queue_beats_static_makespan(self):
        tasks = compile_run_specs(_straggler_specs())
        durations = {
            task.spec_hash: (
                self.DURATION_LARGE if task.payload[0].n == 400 else self.DURATION_SMALL
            )
            for task in tasks
        }
        workers = 3
        static = _static_lpt_plan(tasks, workers)
        # The static plan piles all eight small groups behind one worker
        # (their weight looks negligible next to the 400-node instances).
        assert sorted(len(shard) for shard in static) == [1, 1, 8]
        static_makespan = max(
            sum(durations[task.spec_hash] for task in shard) for shard in static
        )
        queue = AffinityTaskQueue(tasks, workers)
        before = queue.dispatched
        makespan, assignments = _replay(queue, workers, durations)
        assert static_makespan / makespan >= 1.5
        assert queue.dispatched - before == len(tasks)
        flat = sorted(task.index for worker in assignments for task in worker)
        assert flat == [task.index for task in tasks]
        # The small groups were spread instead of piled on one worker.
        small_workers = {
            worker
            for worker, assigned in enumerate(assignments)
            for task in assigned
            if task.payload[0].n == 10
        }
        assert len(small_workers) >= 2


class TestRealPool:
    def test_forked_pool_matches_serial(self):
        # A real multi-process run through the group queue: rows must be
        # bit-identical to the serial path (straggler-shaped grid, shrunk
        # so the forked run stays cheap).
        specs = [
            RunSpec(family="tree", n=30, alpha=0.5, k=2, seed=0, solver="greedy")
        ] + [
            RunSpec(family="tree", n=10, alpha=alpha, k=2, seed=seed, solver="greedy")
            for seed in range(1, 4)
            for alpha in (0.5, 2.0)
        ]
        serial = [run_single(spec) for spec in specs]
        results = orchestrate(
            compile_run_specs(specs),
            ServiceConfig(workers=3),
        )
        assert results == serial

    def test_each_group_runs_on_one_worker_in_compile_order(self):
        # Telemetry summaries carry the executing worker's pid; a worker
        # returns its tasks in the order it received them, so per group the
        # summaries arrive in dispatch order.
        tasks = compile_run_specs(_specs())
        summaries: list[dict] = []
        decoded: dict[int, object] = {}
        pool = PersistentWorkerPool(workers=2, telemetry=True)
        try:
            pool.run_tasks(
                tasks,
                lambda index, spec_hash, kind, payload: decoded.__setitem__(
                    index, decode_result(kind, payload)
                ),
                on_telemetry=summaries.append,
            )
        finally:
            pool.stop()
        pids: dict[str, set[int]] = {}
        order: dict[str, list[int]] = {}
        for summary in summaries:
            key = tasks[summary["index"]].instance_key
            pids.setdefault(key, set()).add(summary["worker"])
            order.setdefault(key, []).append(summary["index"])
        assert all(len(workers) == 1 for workers in pids.values())
        assert order == _groups(tasks)
        # Both workers took a group: each receives one on the first dispatch.
        assert len(set().union(*pids.values())) == 2
        assert [decoded[task.index] for task in tasks] == [
            run_single(task.payload[0]) for task in tasks
        ]
