"""Session-unit dispatch: equivalence, affinity invariants, makespan.

The load-bearing property mirrors the orchestration suite's: no
interleaving of worker requests may change the row set.  On top of that
the central queue has its own invariants: every task is dispatched
exactly once, a warm session's tasks (one unit) go to one worker in
compile order, units leave heaviest instance group first with a group's
units adjacent (so a worker builds each instance at most once), one
worker drains the instance groups in order, and on the straggler grid
(deceptively light small instances next to deceptively heavy large ones)
handing units out on demand beats the static weighted plan's makespan.
"""

import heapq

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.experiments.config import SweepSettings
from repro.experiments.extensions.robustness import RobustnessStudyConfig
from repro.experiments.extensions.sum_dynamics import SumDynamicsConfig
from repro.experiments.runner import RunSpec, run_single
from repro.service.api import ServiceConfig, orchestrate, robustness_sweep
from repro.service.tasks import (
    AffinityTaskQueue,
    compile_robustness_tasks,
    compile_run_specs,
    compile_sum_tasks,
    decode_result,
    encode_result,
    group_weight,
    strip_timing_fields,
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


def _robustness_config(num_seeds: int = 2) -> RobustnessStudyConfig:
    """Two α cells per instance: two warm sessions share each instance."""
    return RobustnessStudyConfig(
        families=("tree", "gnp"),
        operators=("add_shortcuts", "reset_player"),
        n=10,
        alphas=(0.5, 2.0),
        ks=(2,),
        shocks_per_instance=2,
        intensity=1,
        settings=SweepSettings(
            num_seeds=num_seeds, solver="branch_and_bound", max_rounds=60
        ),
    )


def _groups(tasks) -> dict[str, list[int]]:
    """Compile-order task indices per instance group."""
    groups: dict[str, list[int]] = {}
    for task in tasks:
        groups.setdefault(task.instance_key, []).append(task.index)
    return groups


def _unit(task):
    """A task's dispatch unit: its warm session, else the task itself."""
    return task.session_key or task.index


def _units(tasks) -> dict:
    """Compile-order task indices per dispatch unit."""
    units: dict = {}
    for task in tasks:
        units.setdefault(_unit(task), []).append(task.index)
    return units


def _instance_group_order(tasks) -> list[int]:
    """The drain order of the instance-group queue the unit queue replaced:
    whole groups heaviest first, ties by ``instance_key``, each group in
    compile order."""
    groups: dict[str, list] = {}
    for task in tasks:
        groups.setdefault(task.instance_key, []).append(task)
    ordered = sorted(
        groups.values(), key=lambda group: (-group_weight(group), group[0].instance_key)
    )
    return [task.index for group in ordered for task in group]


def _assert_session_dispatch(tasks, sequence) -> None:
    """The queue's invariants over a drained ``[(worker, task)]`` sequence."""
    # Every task exactly once.
    assert sorted(task.index for _, task in sequence) == [task.index for task in tasks]
    owner: dict = {}
    per_unit: dict = {}
    visits: dict[int, list[str]] = {}
    for worker, task in sequence:
        # A unit runs on one worker, in compile order.
        assert owner.setdefault(_unit(task), worker) == worker
        per_unit.setdefault(_unit(task), []).append(task.index)
        runs = visits.setdefault(worker, [])
        if not runs or runs[-1] != task.instance_key:
            runs.append(task.instance_key)
    assert per_unit == _units(tasks)
    # A worker's tasks of one instance are consecutive: built at most once.
    assert all(len(runs) == len(set(runs)) for runs in visits.values())
    # Units leave in the one-worker drain order.
    by_index = {task.index: task for task in tasks}
    assert list(dict.fromkeys(_unit(task) for _, task in sequence)) == list(
        dict.fromkeys(_unit(by_index[i]) for i in _instance_group_order(tasks))
    )


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
    @pytest.mark.parametrize(
        "compiled",
        [
            lambda: compile_run_specs(_specs()),
            lambda: compile_sum_tasks(SumDynamicsConfig.smoke()),
            lambda: compile_robustness_tasks(_robustness_config()),
        ],
        ids=["run_spec", "sum", "robustness"],
    )
    def test_one_worker_drains_the_instance_group_order(self, compiled):
        tasks = compiled()
        queue = AffinityTaskQueue(tasks, 1)
        drained = []
        while (task := queue.next_task(0)) is not None:
            drained.append(task.index)
        assert drained == _instance_group_order(tasks)

    def test_an_instance_splits_into_its_session_units(self):
        tasks = compile_robustness_tasks(_robustness_config())
        queue = AffinityTaskQueue(tasks, 2)
        first, second = queue.next_task(0), queue.next_task(1)
        # One instance, two α sessions: both workers start on it at once.
        assert first.instance_key == second.instance_key
        assert first.session_key != second.session_key
        assert queue.next_task(0).session_key == first.session_key

    @settings(
        max_examples=30,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        workers=st.integers(min_value=2, max_value=5),
        grid=st.sampled_from(["run_spec", "robustness"]),
        data=st.data(),
    )
    def test_any_interleaving_dispatches_each_unit_once_in_order(
        self, workers, grid, data
    ):
        tasks = (
            compile_run_specs(_specs())
            if grid == "run_spec"
            else compile_robustness_tasks(_robustness_config())
        )
        queue = AffinityTaskQueue(tasks, workers)
        before = queue.dispatched
        sequence: list = []
        active = set(range(workers))
        while active:
            worker = data.draw(st.sampled_from(sorted(active)), label="worker")
            task = queue.next_task(worker)
            if task is None:
                active.discard(worker)
                continue
            sequence.append((worker, task))
        assert queue.dispatched - before == len(tasks)
        _assert_session_dispatch(tasks, sequence)

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
        ran: list[set[str]] = [set() for _ in range(workers)]
        active = set(range(workers))
        while active:
            worker = data.draw(st.sampled_from(sorted(active)), label="worker")
            task = queue.next_task(worker)
            if task is None:
                active.discard(worker)
                continue
            payload = encode_result(task, runtimes[worker].execute(task))
            decoded[task.index] = decode_result(task.kind, payload)
            ran[worker].add(task.instance_key)
        assert [decoded[i] for i in range(len(specs))] == serial
        # Each runtime built every instance it ran exactly once.
        assert [r.instances_built for r in runtimes] == [len(keys) for keys in ran]


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

    @staticmethod
    def _pooled(tasks) -> tuple[list[dict], dict[int, object]]:
        """Telemetry summaries (arrival order) and decoded results of one
        2-worker pool run."""
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
        return summaries, decoded

    def test_each_worker_runs_an_instance_back_to_back(self):
        # Telemetry summaries carry the executing worker's pid; a worker
        # returns its tasks in the order it received them, so per pid the
        # summaries arrive in dispatch order.
        tasks = compile_run_specs(_specs())
        summaries, decoded = self._pooled(tasks)
        assert sorted(s["index"] for s in summaries) == [t.index for t in tasks]
        visits: dict[int, list[str]] = {}
        for summary in summaries:
            runs = visits.setdefault(summary["worker"], [])
            key = tasks[summary["index"]].instance_key
            if not runs or runs[-1] != key:
                runs.append(key)
        # Each worker ran an instance's tasks back to back (one build each).
        assert all(len(runs) == len(set(runs)) for runs in visits.values())
        # Both workers took a unit: each receives one on the first dispatch.
        assert len(visits) == 2
        assert [decoded[task.index] for task in tasks] == [
            run_single(task.payload[0]) for task in tasks
        ]

    def test_sessionless_tasks_of_one_instance_run_on_two_pids(self):
        tasks = compile_run_specs(_specs(num_seeds=1)[:2])
        assert tasks[0].instance_key == tasks[1].instance_key
        summaries, decoded = self._pooled(tasks)
        assert len({summary["worker"] for summary in summaries}) == 2
        assert [decoded[task.index] for task in tasks] == [
            run_single(task.payload[0]) for task in tasks
        ]

    def test_robustness_sessions_run_on_one_pid_each(self):
        cfg = _robustness_config(num_seeds=1)
        tasks = compile_robustness_tasks(cfg)
        summaries, decoded = self._pooled(tasks)
        pids: dict[str, set[int]] = {}
        order: dict[str, list[int]] = {}
        for summary in summaries:
            session = tasks[summary["index"]].session_key
            pids.setdefault(session, set()).add(summary["worker"])
            order.setdefault(session, []).append(summary["index"])
        assert all(len(workers) == 1 for workers in pids.values())
        assert order == _units(tasks)
        rows = [row for index in range(len(tasks)) for row in decoded[index][0]]
        assert strip_timing_fields(rows) == strip_timing_fields(
            robustness_sweep(cfg, ServiceConfig(workers=1))[0]
        )
