"""Work-stealing dispatch: equivalence, affinity invariants, makespan.

The load-bearing property mirrors the orchestration suite's: dispatch
policy — static shards, work stealing, any interleaving of worker
requests — must never change the row set.  On top of that the dispatcher
has its own invariants: whole instance-groups move (never single tasks),
tasks inside a group are handed out in compile order, and on the straggler
grid (deceptively light small instances piled behind deceptively heavy
large ones) stealing strictly beats the static plan's makespan.
"""

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
    shard_tasks,
    simulate_dispatch,
)
from repro.service.workers import WorkerRuntime


def _specs(num_seeds: int = 3) -> list[RunSpec]:
    return [
        RunSpec(family="tree", n=10, alpha=alpha, k=k, seed=seed, solver="greedy")
        for alpha in (0.5, 2.0)
        for k in (2, 3)
        for seed in range(num_seeds)
    ]


def _straggler_specs() -> list[RunSpec]:
    """One large instance per fast worker, many small ones behind them.

    The large groups carry huge estimated weight (n=400), the small groups
    tiny weight (n=10) — so the static planner parks every small group on
    the one worker not holding a large instance.  Durations are assigned
    synthetically in the tests: weight and true cost are deliberately
    anti-correlated, the exact blind spot work stealing exists for.
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


class TestWeightedSharding:
    def test_groups_balance_by_estimated_weight(self):
        # One 100-node single-task group vs four 10-node two-task groups:
        # by weight (100 vs 4x20) the big group deserves a shard to itself;
        # by bare cardinality it would be the *lightest* group and attract
        # company.
        specs = [RunSpec(family="tree", n=100, alpha=0.5, k=2, seed=0, solver="greedy")]
        specs += [
            RunSpec(family="tree", n=10, alpha=alpha, k=2, seed=seed, solver="greedy")
            for seed in range(1, 5)
            for alpha in (0.5, 2.0)
        ]
        tasks = compile_run_specs(specs)
        shards = shard_tasks(tasks, 2)
        big = [shard for shard in shards if any(t.payload[0].n == 100 for t in shard)]
        assert len(big) == 1 and len(big[0]) == 1

    def test_group_weight_is_nodes_times_tasks(self):
        tasks = compile_run_specs(_specs(num_seeds=1))
        groups: dict[str, list] = {}
        for task in tasks:
            groups.setdefault(task.instance_key, []).append(task)
        for members in groups.values():
            assert group_weight(members) == 10 * len(members)


class TestAffinityTaskQueue:
    def test_no_steal_round_robin_equals_static_shards(self):
        tasks = compile_run_specs(_specs())
        for workers in (2, 3, 5):
            shards = shard_tasks(tasks, workers)
            shards += [[] for _ in range(workers - len(shards))]
            queue = AffinityTaskQueue(tasks, workers, steal=False)
            drained: list[list] = [[] for _ in range(workers)]
            active = set(range(workers))
            while active:
                for worker in sorted(active):
                    task = queue.next_task(worker)
                    if task is None:
                        active.discard(worker)
                    else:
                        drained[worker].append(task)
            assert drained == shards
            assert queue.steals == 0

    @settings(
        max_examples=30,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        workers=st.integers(min_value=2, max_value=5),
        steal=st.booleans(),
        data=st.data(),
    )
    def test_any_interleaving_dispatches_each_group_once_in_order(
        self, workers, steal, data
    ):
        tasks = compile_run_specs(_specs())
        queue = AffinityTaskQueue(tasks, workers, steal=steal)
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
            # Whole groups move: one worker per instance_key, ever.
            assert owner.setdefault(task.instance_key, worker) == worker
            per_group.setdefault(task.instance_key, []).append(task.index)
        assert sorted(t.index for t in dispatched) == [t.index for t in tasks]
        compile_order: dict[str, list[int]] = {}
        for task in tasks:
            compile_order.setdefault(task.instance_key, []).append(task.index)
        # In-sequence-per-instance: dispatch order inside a group is compile
        # order (warm sessions depend on it).
        assert per_group == compile_order

    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(
        workers=st.integers(min_value=2, max_value=4),
        steal=st.booleans(),
        data=st.data(),
    )
    def test_stolen_equals_static_equals_serial_rows(self, workers, steal, data):
        specs = _specs(num_seeds=2)
        tasks = compile_run_specs(specs)
        serial = [run_single(spec) for spec in specs]
        queue = AffinityTaskQueue(tasks, workers, steal=steal)
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
        assert sum(r.instances_built for r in runtimes) == len(
            {t.instance_key for t in tasks}
        )


class TestStragglerScenario:
    DURATION_SMALL = 4.0  # deceptively light: weight 10, truly slow
    DURATION_LARGE = 6.0  # deceptively heavy: weight 400, truly moderate

    def _durations(self, tasks) -> dict[str, float]:
        return {
            task.spec_hash: (
                self.DURATION_LARGE
                if task.payload[0].n == 400
                else self.DURATION_SMALL
            )
            for task in tasks
        }

    def test_stealing_beats_static_makespan(self):
        tasks = compile_run_specs(_straggler_specs())
        durations = self._durations(tasks)
        workers = 3
        static_makespan, static_assign = simulate_dispatch(
            tasks, workers, durations, steal=False
        )
        steal_makespan, steal_assign = simulate_dispatch(
            tasks, workers, durations, steal=True
        )
        # The static plan piles all eight small groups behind one worker
        # (their weight looks negligible next to the 400-node instances).
        static_loads = sorted(len(assigned) for assigned in static_assign)
        assert static_loads == [1, 1, 8]
        assert steal_makespan < static_makespan
        assert static_makespan / steal_makespan >= 1.5
        # Both policies execute the full task set exactly once.
        for assignments in (static_assign, steal_assign):
            flat = sorted(index for worker in assignments for index in worker)
            assert flat == [task.index for task in tasks]

    def test_simulation_reports_steals_on_the_straggler_grid(self):
        tasks = compile_run_specs(_straggler_specs())
        durations = self._durations(tasks)
        queue = AffinityTaskQueue(tasks, 3, steal=True)
        # Replay the virtual-time loop by hand to read the queue counters.
        import heapq

        events = [(0.0, worker) for worker in range(3)]
        heapq.heapify(events)
        while events:
            now, worker = heapq.heappop(events)
            task = queue.next_task(worker)
            if task is not None:
                heapq.heappush(events, (now + durations[task.spec_hash], worker))
        assert queue.steals > 0
        assert queue.dispatched == len(tasks)


class TestRealPoolStealing:
    def test_forked_pool_with_stealing_matches_serial(self):
        # A real multi-process run through the work-stealing pool: rows
        # must be bit-identical to the serial path (straggler-shaped grid,
        # shrunk so the forked run stays cheap).
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
