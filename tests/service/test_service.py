"""Tests for the sweep orchestration service.

The load-bearing property: orchestrated sweeps — any worker count, any
dispatch interleaving, warm engine reuse, journal round-trips — produce
exactly the results of references built outside the service
(``run_single`` per spec, ``run_sum_task`` per run, a fresh base engine
per robustness cell), reassembled in canonical task order.
Timing fields (``warm_s``/``cold_s``/``warm_speedup``) are the sole
documented exception; they differ between any two runs just the same.
"""

import dataclasses
import os
import random
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.experiments.config import SweepSettings
from repro.experiments.extensions.robustness import (
    RobustnessStudyConfig,
    _converge_base,
    _instance_cells,
    _operator_rows,
    _unconverged_base_row,
    generate_robustness_study,
)
from repro.experiments.extensions.sum_dynamics import (
    SumDynamicsConfig,
    generate_sum_dynamics,
    run_sum_task,
)
from repro.experiments.runner import RunSpec, run_single
from repro.experiments.store import ExperimentStore
from repro.graphs.generators.trees import random_owned_tree
from repro.obs import default_registry
from repro.service.api import (
    ServiceConfig,
    map_calls,
    orchestrate,
    run_spec_sweep,
)
from repro.service.tasks import (
    AffinityTaskQueue,
    compile_calls,
    compile_robustness_tasks,
    compile_run_specs,
    compile_sum_tasks,
    decode_result,
    encode_result,
    strip_timing_fields,
    sweep_hash,
)
from repro.service.workers import (
    INSTANCE_CACHE_SIZE,
    PersistentWorkerPool,
    WorkerRuntime,
)


def _specs(num_seeds: int = 2) -> list[RunSpec]:
    return [
        RunSpec(family="tree", n=10, alpha=alpha, k=k, seed=seed, solver="greedy")
        for alpha in (0.5, 2.0)
        for k in (2, 3)
        for seed in range(num_seeds)
    ]


def _robustness_config(workers: int = 1) -> RobustnessStudyConfig:
    return RobustnessStudyConfig(
        families=("tree", "gnp"),
        operators=("add_shortcuts", "reset_player"),
        n=10,
        alphas=(0.5,),
        ks=(2,),
        shocks_per_instance=2,
        intensity=1,
        settings=SweepSettings(
            num_seeds=1, solver="branch_and_bound", max_rounds=60, workers=workers
        ),
    )


def _dispatch_interleaved(tasks, workers: int, choose) -> list[tuple[int, object]]:
    """Drain an :class:`AffinityTaskQueue` as ``(worker, task)`` pairs.

    ``choose(active)`` picks the requesting worker from the sorted list of
    workers the queue has not yet told to stop.
    """
    queue = AffinityTaskQueue(tasks, workers)
    sequence = []
    active = list(range(workers))
    while active:
        worker = choose(active)
        task = queue.next_task(worker)
        if task is None:
            active.remove(worker)
        else:
            sequence.append((worker, task))
    return sequence


def _run_interleaved(tasks, workers: int, choose) -> list:
    """Decoded results in task order, each task executed as dispatched on
    the :class:`WorkerRuntime` of the worker the queue handed it to."""
    runtimes = [WorkerRuntime() for _ in range(workers)]
    decoded = {}
    for worker, task in _dispatch_interleaved(tasks, workers, choose):
        payload = encode_result(task, runtimes[worker].execute(task))
        decoded[task.index] = decode_result(task.kind, payload)
    assert sum(r.instances_built for r in runtimes) == len(
        {task.instance_key for task in tasks}
    )
    return [decoded[task.index] for task in tasks]


class TestCompilationAndDispatch:
    def test_run_spec_tasks_share_instance_keys_across_cells(self):
        tasks = compile_run_specs(_specs(num_seeds=2))
        by_seed = {}
        for task in tasks:
            by_seed.setdefault(task.payload[0].seed, set()).add(task.instance_key)
        # Same (family, n, seed) across the four (alpha, k) cells -> one key.
        assert all(len(keys) == 1 for keys in by_seed.values())
        assert len({task.spec_hash for task in tasks}) == len(tasks)

    def test_robustness_tasks_share_sessions_per_cell(self):
        tasks = compile_robustness_tasks(_robustness_config())
        cells = {}
        for task in tasks:
            cells.setdefault(task.session_key, []).append(task)
        assert all(len(ops) == 2 for ops in cells.values())
        # Exactly one emit_base task per cell, the first operator.
        for ops in cells.values():
            assert [task.payload[11] for task in ops] == [True, False]

    def test_robustness_identities_keep_the_exact_penalty(self):
        # The game label formats beta to 6 significant digits; two grids
        # differing beyond that must still get distinct task identities,
        # or the cache, --resume and warm sessions would mix them up.
        def compiled(beta):
            cfg = RobustnessStudyConfig.smoke().with_cost_model(
                "tolerant", penalty_beta=beta
            )
            return compile_robustness_tasks(cfg)

        first, second = compiled(3.0000001), compiled(3.0000002)
        assert len(first) == len(second)
        for a, b in zip(first, second):
            assert a.spec_hash != b.spec_hash
            assert a.session_key != b.session_key
        assert sweep_hash(first) != sweep_hash(second)
        assert [t.spec_hash for t in first] == [t.spec_hash for t in compiled(3.0000001)]

    def test_queue_preserves_instance_affinity(self):
        tasks = compile_run_specs(_specs(num_seeds=3))
        for seed in (0, 1, 17):
            sequence = _dispatch_interleaved(tasks, 3, random.Random(seed).choice)
            assert sorted(t.index for _, t in sequence) == [t.index for t in tasks]
            owner = {}
            for worker, task in sequence:
                assert owner.setdefault(task.instance_key, worker) == worker

    def test_sweep_hash_tracks_content(self):
        tasks = compile_run_specs(_specs())
        assert sweep_hash(tasks) == sweep_hash(compile_run_specs(_specs()))
        other = compile_run_specs(_specs()[:-1])
        assert sweep_hash(tasks) != sweep_hash(other)


class TestCodecs:
    def test_run_result_round_trip_is_exact(self):
        tasks = compile_run_specs(_specs()[:3])
        for task in tasks:
            result = run_single(task.payload[0])
            assert decode_result("run_spec", encode_result(task, result)) == result

    def test_round_trip_survives_json(self):
        import json

        task = compile_run_specs(_specs()[:1])[0]
        result = run_single(task.payload[0])
        payload = json.loads(json.dumps(encode_result(task, result)))
        assert decode_result("run_spec", payload) == result

    def test_row_codec_is_type_preserving(self):
        import json
        import math

        from repro.service.tasks import _jsonify_row, _parse_row

        # A string field literally holding "inf" must stay a string, and a
        # non-finite float must come back as that float — the two may not
        # be conflated by the escape.
        row = {
            "label": "inf",
            "note": "nan",
            "cost": math.inf,
            "drift": -math.inf,
            "gap": math.nan,
            "count": 3,
        }
        decoded = _parse_row(json.loads(json.dumps(_jsonify_row(row))))
        assert decoded["label"] == "inf" and isinstance(decoded["label"], str)
        assert decoded["note"] == "nan" and isinstance(decoded["note"], str)
        assert decoded["cost"] == math.inf
        assert decoded["drift"] == -math.inf
        assert math.isnan(decoded["gap"])
        assert decoded["count"] == 3


def _robustness_reference(cfg: RobustnessStudyConfig) -> list[dict]:
    """A robustness study's rows built outside the service.

    One fresh base engine per instance cell, then each operator's chain
    on it in turn.
    """
    rows: list[dict] = []
    for family, alpha, k, seed, game in _instance_cells(cfg):
        session = _converge_base(
            family, cfg.n, alpha, k, seed, cfg.settings.solver, cfg.settings.max_rounds, game
        )
        if not session.result.converged:
            rows.append(_unconverged_base_row(session))
            continue
        for operator in cfg.operators:
            rows.extend(
                _operator_rows(session, operator, cfg.shocks_per_instance, cfg.intensity)
            )
    return rows


class TestOrchestratedEquivalence:
    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(workers=st.integers(min_value=2, max_value=5), data=st.data())
    def test_run_spec_rows_invariant_under_dispatch(self, workers, data):
        specs = _specs()
        serial = [run_single(spec) for spec in specs]
        results = _run_interleaved(
            compile_run_specs(specs),
            workers,
            lambda active: data.draw(st.sampled_from(active), label="worker"),
        )
        assert results == serial

    @pytest.mark.parametrize("workers, seed", [(2, 0), (3, 7)])
    def test_robustness_rows_invariant_under_dispatch(self, workers, seed):
        serial = _robustness_reference(_robustness_config())
        results = _run_interleaved(
            compile_robustness_tasks(_robustness_config()),
            workers,
            random.Random(seed).choice,
        )
        rows = [row for task_rows, _ in results for row in task_rows]
        assert strip_timing_fields(rows) == strip_timing_fields(serial)
        checkpoint = results[0][1]
        assert checkpoint is not None and checkpoint["certified"]

    @pytest.mark.parametrize("workers, seed", [(3, 0), (5, 7)])
    def test_sum_rows_invariant_under_dispatch(self, workers, seed):
        cfg = SumDynamicsConfig.smoke()
        max_rounds = cfg.settings.max_rounds
        serial = [
            run_sum_task(
                (n, alpha, k, seed, max_rounds), random_owned_tree(n, seed=seed)
            )
            for n in cfg.sizes
            for alpha in cfg.alphas
            for k in cfg.ks
            for seed in range(
                cfg.settings.base_seed, cfg.settings.base_seed + cfg.settings.num_seeds
            )
        ]
        rows = _run_interleaved(
            compile_sum_tasks(cfg), workers, random.Random(seed).choice
        )
        assert rows == serial

    def test_robustness_store_does_not_depend_on_the_worker_count(self, tmp_path):
        one = generate_robustness_study(_robustness_config(), store=tmp_path / "a")
        two = generate_robustness_study(
            _robustness_config(workers=2),
            store=tmp_path / "b",
            journal=str(tmp_path / "journal"),
        )
        assert strip_timing_fields(two) == strip_timing_fields(one)
        stores = [ExperimentStore(tmp_path / name) for name in ("a", "b")]
        assert strip_timing_fields(stores[1].load_rows("robustness")) == (
            strip_timing_fields(stores[0].load_rows("robustness"))
        )
        (label,) = stores[0].list_checkpoints("robustness")
        assert stores[1].list_checkpoints("robustness") == [label]
        checkpoint = Path("robustness", "checkpoints", f"{label}.json")
        assert (tmp_path / "b" / checkpoint).read_bytes() == (
            (tmp_path / "a" / checkpoint).read_bytes()
        )

    def test_journaled_sum_study_matches_serial(self, tmp_path):
        cfg = SumDynamicsConfig.smoke()
        assert generate_sum_dynamics(cfg, journal=str(tmp_path)) == (
            generate_sum_dynamics(cfg)
        )

    def test_real_process_pool_matches_serial(self):
        specs = _specs()
        serial = [run_single(spec) for spec in specs]
        orchestrated = run_spec_sweep(specs, ServiceConfig(workers=2))
        assert orchestrated == serial

    def test_worker_errors_propagate(self):
        # No connected G(10, 0) exists: the worker's generator gives up.
        bad = [RunSpec(family="gnp", n=10, alpha=1.0, k=2, seed=0, p=0.0)]
        with pytest.raises((RuntimeError, ValueError)):
            run_spec_sweep(bad * 2, ServiceConfig(workers=2))


def _square(x: int) -> int:
    return x * x


def _fail(x: int) -> int:
    raise RuntimeError(f"boom {x}")


def _run_calls(executor, func, items) -> list:
    """``"call"`` tasks through one executor, reassembled by index."""
    tasks = compile_calls(func, items)
    results = {}
    executor.run_tasks(
        tasks,
        lambda index, spec_hash, kind, payload: results.__setitem__(
            index, decode_result(kind, payload)
        ),
    )
    return [results[task.index] for task in tasks]


@pytest.fixture(params=["runtime", "pool"])
def executor(request):
    """Each executor of the service, started (and stopped afterwards)."""
    executor = (
        WorkerRuntime() if request.param == "runtime" else PersistentWorkerPool(workers=2)
    )
    executor.start()
    try:
        yield executor
    finally:
        executor.stop()


class TestExecutorContract:
    """One test per behaviour, run against the serial and the process executor."""

    def test_delivers_every_encoded_result(self, executor):
        tasks = compile_run_specs(_specs())
        delivered = []
        executor.run_tasks(
            tasks,
            lambda index, spec_hash, kind, payload: delivered.append(
                (index, spec_hash, payload)
            ),
        )
        expected = [
            (task.index, task.spec_hash, encode_result(task, run_single(task.payload[0])))
            for task in tasks
        ]
        assert sorted(delivered, key=lambda item: item[0]) == expected

    def test_abort_before_the_first_task_delivers_nothing(self, executor):
        delivered = []
        executor.run_tasks(
            compile_run_specs(_specs())[:6],
            lambda index, spec_hash, kind, payload: delivered.append(index),
            should_abort=lambda: True,
        )
        assert delivered == []

    def test_task_error_raises(self, executor):
        # No connected G(10, 0) exists: the worker's generator gives up.
        bad = RunSpec(family="gnp", n=10, alpha=1.0, k=2, seed=0, p=0.0)
        with pytest.raises((RuntimeError, ValueError)):
            executor.run_tasks(
                compile_run_specs([bad]), lambda index, spec_hash, kind, payload: None
            )

    @pytest.mark.parametrize(
        "items",
        [[], [5], list(range(20)), [3, 1, 3, 3]],
        ids=["empty", "single", "twenty", "duplicates"],
    )
    def test_call_tasks_return_func_of_each_item_in_input_order(
        self, executor, items
    ):
        assert _run_calls(executor, _square, items) == [_square(x) for x in items]

    def test_raising_call_raises(self, executor):
        with pytest.raises(RuntimeError, match="boom"):
            _run_calls(executor, _fail, [1, 2, 3])


class TestMapCalls:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_map_calls_equals_the_serial_comprehension(self, workers):
        assert map_calls(_square, [], workers) == []
        assert map_calls(_square, [5], workers) == [25]
        # Duplicates share one identity and execute once, but every
        # occurrence still gets its own row.
        items = [4, *range(12), 4, 4]
        assert map_calls(_square, items, workers) == [_square(x) for x in items]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_raising_func_raises(self, workers):
        with pytest.raises(RuntimeError, match="boom"):
            map_calls(_fail, [1, 2, 3], workers)

    def test_call_identity_names_the_function_and_the_item(self):
        first, again, other = compile_calls(_square, [1, 1, 2])
        assert first.spec_hash == again.spec_hash != other.spec_hash
        assert first.instance_key == first.spec_hash
        assert first.session_key == ""
        assert compile_calls(_fail, [1])[0].spec_hash != first.spec_hash


class TestPersistentPoolFailures:
    def test_worker_death_drains_siblings_before_the_next_batch(self, monkeypatch):
        # Two tasks on two instances, one per worker: the first kills its
        # worker, the second is still running when the death is noticed.
        specs = _specs()
        doomed, slow = compile_run_specs([specs[0], specs[1]])
        second = compile_run_specs([specs[2], specs[3]])
        original = WorkerRuntime.execute

        def execute(self, task):
            if task.spec_hash == doomed.spec_hash:
                os._exit(1)
            if task.spec_hash == slow.spec_hash:
                time.sleep(2.5)
            return original(self, task)

        monkeypatch.setattr(WorkerRuntime, "execute", execute)  # forked workers inherit it
        pool = PersistentWorkerPool(workers=2)
        pool.start()
        try:
            first_seen = []
            with pytest.raises(RuntimeError, match="died"):
                pool.run_tasks(
                    [doomed, slow],
                    lambda index, spec_hash, kind, payload: first_seen.append(spec_hash),
                )
            assert first_seen == [slow.spec_hash]
            seen = set()
            pool.run_tasks(
                second,
                lambda index, spec_hash, kind, payload: seen.add((index, spec_hash)),
            )
        finally:
            pool.stop()
        assert seen == {(task.index, task.spec_hash) for task in second}


class TestWarmSessions:
    def test_base_engine_converges_once_per_cell(self):
        cfg = dataclasses.replace(_robustness_config(), families=("gnp",))
        tasks = compile_robustness_tasks(cfg)
        runtime = WorkerRuntime()
        results = [
            decode_result(t.kind, encode_result(t, runtime.execute(t))) for t in tasks
        ]
        assert runtime.sessions_built == 1
        assert runtime.sessions_reused == len(tasks) - 1
        serial = _robustness_reference(cfg)
        rows = [row for task_rows, _ in results for row in task_rows]
        assert strip_timing_fields(rows) == strip_timing_fields(serial)


class TestWorkerInstances:
    """A worker builds each instance itself, on its group's first task,
    into an LRU that the group's later tasks reuse."""

    def test_runtime_builds_each_instance_once_per_group(self):
        tasks = compile_run_specs(_specs())
        runtime = WorkerRuntime()
        results = [runtime.execute(task) for task in tasks]
        groups = len({task.instance_key for task in tasks})
        assert runtime.instances_built == groups
        assert runtime.instances_reused == len(tasks) - groups
        assert results == [run_single(task.payload[0]) for task in tasks]

    def test_a_reused_instance_is_unchanged_by_earlier_runs(self):
        task = compile_run_specs(_specs()[:1])[0]
        runtime = WorkerRuntime()
        first = runtime.execute(task)
        second = runtime.execute(task)
        assert (runtime.instances_built, runtime.instances_reused) == (1, 1)
        assert first == second == run_single(task.payload[0])

    def test_instance_cache_evicts_the_least_recently_used(self):
        specs = [
            RunSpec(family="tree", n=10, alpha=2.0, k=2, seed=seed, solver="greedy")
            for seed in range(INSTANCE_CACHE_SIZE + 1)
        ]
        tasks = compile_run_specs(specs)
        runtime = WorkerRuntime()
        for task in tasks:
            runtime.execute(task)
        runtime.execute(tasks[-1])  # the newest instance is still cached
        assert runtime.instances_reused == 1
        runtime.execute(tasks[0])  # the oldest was evicted: built again
        assert runtime.instances_built == len(tasks) + 1
        assert runtime.instances_reused == 1

    def test_cache_counter_has_only_built_and_reused_events(self):
        runtime = WorkerRuntime()
        family = default_registry().counter("repro_worker_cache_total")
        before = {key: series.value for key, series in family.samples()}
        tasks = compile_run_specs(_specs())
        for task in tasks:
            runtime.execute(task)
        groups = len({task.instance_key for task in tasks})
        assert {
            key: series.value - before.get(key, 0) for key, series in family.samples()
        } == {
            ("instance", "built"): groups,
            ("instance", "reused"): len(tasks) - groups,
            ("session", "built"): 0,
            ("session", "reused"): 0,
        }

    def test_serial_sweep_builds_each_seed_group_once(self):
        # Seeds innermost: compile order cycles through 6 instances, more
        # than the cache holds, so running it as compiled rebuilds them.
        tasks = compile_run_specs(_specs(num_seeds=6))
        groups = len({task.instance_key for task in tasks})
        assert groups == 6 > INSTANCE_CACHE_SIZE
        compile_order = WorkerRuntime()
        expected = [
            decode_result(task.kind, encode_result(task, compile_order.execute(task)))
            for task in tasks
        ]
        assert compile_order.instances_built == len(tasks)
        family = default_registry().counter("repro_worker_cache_total")
        before = {key: series.value for key, series in family.samples()}
        rows = orchestrate(tasks, ServiceConfig(workers=1))
        moved = {key: series.value - before.get(key, 0) for key, series in family.samples()}
        assert moved[("instance", "built")] == groups
        assert moved[("instance", "reused")] == len(tasks) - groups
        assert rows == expected

    def test_sum_tasks_build_one_tree_per_size_and_seed(self):
        cfg = SumDynamicsConfig.smoke()
        tasks = compile_sum_tasks(cfg)
        runtime = WorkerRuntime()
        rows = [runtime.execute(task) for task in tasks]
        assert runtime.instances_built == len(cfg.sizes) * cfg.settings.num_seeds
        assert runtime.instances_reused == len(tasks) - runtime.instances_built
        assert rows == [
            run_sum_task(task.payload, random_owned_tree(n, seed=seed))
            for task in tasks
            for n, _, _, seed, _ in [task.payload]
        ]


class TestOrchestrateJournal:
    def test_resume_skips_completed_tasks(self, tmp_path):
        specs = _specs()
        tasks = compile_run_specs(specs)
        config = ServiceConfig(workers=1, journal_dir=tmp_path, experiment="exp")
        full = orchestrate(tasks, config)
        before = (tmp_path / "exp" / "journal.jsonl").read_text()
        resumed = orchestrate(tasks, dataclasses.replace(config, resume=True))
        assert resumed == full
        # Nothing re-ran: the journal gained no records on the resume.
        assert (tmp_path / "exp" / "journal.jsonl").read_text() == before

    def test_invalid_experiment_name_rejected_before_running(self, tmp_path):
        tasks = compile_run_specs(_specs())
        with pytest.raises(ValueError, match="invalid experiment name"):
            orchestrate(
                tasks,
                ServiceConfig(journal_dir=tmp_path, experiment="bad/name"),
            )
        assert list(tmp_path.iterdir()) == []  # nothing was created or run

    def test_negative_workers_rejected_before_the_journal_opens(self, tmp_path):
        with pytest.raises(ValueError, match="workers"):
            run_spec_sweep(_specs(), ServiceConfig(workers=-1, journal_dir=tmp_path))
        assert list(tmp_path.iterdir()) == []

    def test_resume_rejects_a_different_sweep(self, tmp_path):
        config = ServiceConfig(workers=1, journal_dir=tmp_path, experiment="exp")
        orchestrate(compile_run_specs(_specs()), config)
        other = compile_run_specs(_specs()[:-1])
        with pytest.raises(ValueError, match="different sweep"):
            orchestrate(other, dataclasses.replace(config, resume=True))

    def test_partial_journal_completes_to_identical_rows(self, tmp_path):
        specs = _specs()
        tasks = compile_run_specs(specs)
        config = ServiceConfig(workers=1, journal_dir=tmp_path, experiment="exp")
        full = orchestrate(tasks, config)
        log = tmp_path / "exp" / "journal.jsonl"
        lines = log.read_text().splitlines(True)
        log.write_text("".join(lines[: len(lines) // 2]) + '{"torn-record')
        resumed = orchestrate(tasks, dataclasses.replace(config, resume=True))
        assert resumed == full


class TestDuplicateSpecHashes:
    """The same spec listed twice is one unit of engine work, two rows."""

    @staticmethod
    def _count_executions(monkeypatch) -> list[str]:
        calls: list[str] = []
        original = WorkerRuntime.execute

        def counting(self, task):
            calls.append(task.spec_hash)
            return original(self, task)

        monkeypatch.setattr(WorkerRuntime, "execute", counting)
        return calls

    def test_fresh_grid_executes_unique_hashes_once(self, monkeypatch):
        calls = self._count_executions(monkeypatch)
        specs = _specs()[:2]
        tasks = compile_run_specs(specs + specs)
        results = orchestrate(tasks, ServiceConfig(workers=1))
        assert len(results) == 4
        assert len(calls) == 2  # one execution per unique spec_hash
        assert len(set(calls)) == 2
        # Duplicate positions assemble the same payload into equal — but
        # never aliased — results.
        assert results[0] == results[2] and results[1] == results[3]
        assert results[0] is not results[2]

    def test_journal_records_unique_hashes_once(self, tmp_path, monkeypatch):
        specs = _specs()[:2]
        tasks = compile_run_specs(specs + specs)
        config = ServiceConfig(workers=1, journal_dir=tmp_path, experiment="exp")
        full = orchestrate(tasks, config)
        log_lines = (tmp_path / "exp" / "journal.jsonl").read_text().splitlines()
        assert len(log_lines) == 2  # duplicates were never journaled
        calls = self._count_executions(monkeypatch)
        resumed = orchestrate(tasks, dataclasses.replace(config, resume=True))
        assert calls == []  # every occurrence served from the journal
        assert resumed == full
        assert resumed[0] == resumed[2] and resumed[1] == resumed[3]

    def test_duplicates_match_singles(self):
        specs = _specs()[:2]
        duplicated = orchestrate(
            compile_run_specs(specs + specs), ServiceConfig(workers=1)
        )
        singles = orchestrate(compile_run_specs(specs), ServiceConfig(workers=1))
        assert strip_timing_fields(
            [result.as_row() for result in duplicated]
        ) == strip_timing_fields(
            [result.as_row() for result in singles + singles]
        )
