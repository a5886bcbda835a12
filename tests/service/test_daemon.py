"""End-to-end tests for the sweep daemon (equilibrium-as-a-service).

The served contract under test:

* two concurrent clients submitting **overlapping** grids both get rows
  bit-identical to the serial path, and the overlap is served from the
  content-addressed cache with **zero** extra engine executions (the
  instrumented counters are asserted, and the overlapping ``spec_hash``es
  are journaled by exactly one job — no new appends for shared hashes);
* SIGKILLing the daemon mid-job and restarting on the same store resumes
  the job through the journal ``--resume`` machinery and completes it with
  the exact row set of an uninterrupted run;
* the queue applies backpressure (429), jobs can be cancelled, and
  malformed descriptions are rejected without touching the engine.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.experiments.extensions.robustness import RobustnessStudyConfig
from repro.experiments.extensions.sum_dynamics import SumDynamicsConfig
from repro.experiments.runner import RunSpec, run_single
from repro.service.client import ServiceError, SweepClient
from repro.service.daemon import DaemonConfig, ServiceDaemon
from repro.service.jobs import (
    JobQueueFull,
    compile_job,
    robustness_description,
    run_spec_description,
    sum_description,
)
from repro.service.journal import load_jsonl_records
from repro.service.tasks import (
    compile_robustness_tasks,
    compile_run_specs,
    compile_sum_tasks,
    strip_timing_fields,
)

REPO_ROOT = Path(__file__).resolve().parent.parent.parent


def _specs(alphas, seeds=2, n=10, max_rounds=30) -> list[RunSpec]:
    return [
        RunSpec(
            family="tree",
            n=n,
            alpha=alpha,
            k=2,
            seed=seed,
            solver="greedy",
            max_rounds=max_rounds,
        )
        for alpha in alphas
        for seed in range(seeds)
    ]


def _serial_rows(specs: list[RunSpec]) -> list[dict]:
    return strip_timing_fields([run_single(spec).as_row() for spec in specs])


def _remote_rows(client: SweepClient, job_id: str) -> list[dict]:
    return strip_timing_fields(
        [result.as_row() for result in client.decoded_results(job_id)]
    )


@pytest.fixture()
def daemon(tmp_path):
    instance = ServiceDaemon(
        DaemonConfig(store_dir=tmp_path / "store", in_process=True, port=0)
    )
    instance.start()
    try:
        yield instance
    finally:
        instance.stop()


class TestDaemonEndToEnd:
    def test_concurrent_overlapping_clients(self, daemon):
        """Two clients, overlapping grids: bit-identical rows, shared cells
        executed once, journaled by exactly one job."""
        grid_a = _specs(alphas=(0.5, 2.0))
        grid_b = _specs(alphas=(2.0, 3.0))  # alpha=2.0 cells overlap grid_a
        overlap = {
            task.spec_hash for task in compile_run_specs(grid_a)
        } & {task.spec_hash for task in compile_run_specs(grid_b)}
        assert len(overlap) == 2

        jobs: dict[str, dict] = {}

        def submit(name: str, specs: list[RunSpec]) -> None:
            client = SweepClient(daemon.base_url)
            job = client.submit(run_spec_description(specs))
            jobs[name] = client.wait(job["id"], timeout=180)

        threads = [
            threading.Thread(target=submit, args=("a", grid_a)),
            threading.Thread(target=submit, args=("b", grid_b)),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        client = SweepClient(daemon.base_url)
        assert _remote_rows(client, jobs["a"]["id"]) == _serial_rows(grid_a)
        assert _remote_rows(client, jobs["b"]["id"]) == _serial_rows(grid_b)

        # The overlap executed exactly once daemon-wide: total engine work
        # is the union of unique hashes, and whichever job ran second was
        # served its overlapping cells from the cache.
        union = {
            task.spec_hash
            for task in compile_run_specs(grid_a) + compile_run_specs(grid_b)
        }
        stats = client.stats()
        assert stats["engine_executions"] == len(union)
        assert stats["cache_hits"] >= len(overlap)
        for job in jobs.values():
            assert job["executed"] + job["from_cache"] == job["unique_tasks"]

        # No new journal appends for shared spec_hashes: each overlapping
        # hash appears in exactly one job's journal.
        journaled: list[str] = []
        for job in jobs.values():
            records = load_jsonl_records(
                daemon.manager.store.experiment_dir(job["experiment"])
                / "journal.jsonl"
            )
            journaled.extend(record["spec_hash"] for record in records)
        for spec_hash in overlap:
            assert journaled.count(spec_hash) == 1

    def test_resubmission_is_pure_cache(self, daemon):
        specs = _specs(alphas=(0.5,))
        client = SweepClient(daemon.base_url)
        first = client.wait(
            client.submit(run_spec_description(specs))["id"], timeout=120
        )
        assert first["executed"] == first["unique_tasks"]
        second = client.wait(
            client.submit(run_spec_description(specs))["id"], timeout=120
        )
        assert second["executed"] == 0
        assert second["from_cache"] == second["unique_tasks"]
        assert _remote_rows(client, second["id"]) == _remote_rows(
            client, first["id"]
        )

    def test_duplicate_specs_within_one_job(self, daemon):
        spec = _specs(alphas=(0.5,), seeds=1)[0]
        client = SweepClient(daemon.base_url)
        job = client.wait(
            client.submit(run_spec_description([spec, spec]))["id"], timeout=120
        )
        assert job["num_tasks"] == 2
        assert job["unique_tasks"] == 1
        assert job["executed"] == 1
        results = client.results(job["id"])
        assert len(results) == 2
        assert results[0]["payload"] == results[1]["payload"]
        assert results[0]["spec_hash"] == results[1]["spec_hash"]

    def test_events_stream_replays_and_terminates(self, daemon):
        specs = _specs(alphas=(0.5,), seeds=1)
        client = SweepClient(daemon.base_url)
        job = client.wait(
            client.submit(run_spec_description(specs))["id"], timeout=120
        )
        events = list(client.events(job["id"]))
        assert events[0] == {
            "type": "status",
            "job_id": job["id"],
            "status": "queued",
        }
        task_events = [event for event in events if event["type"] == "task"]
        assert len(task_events) == job["unique_tasks"]
        assert {event["source"] for event in task_events} == {"engine"}
        assert events[-1]["status"] == "done"

    def test_cached_result_endpoint(self, daemon):
        specs = _specs(alphas=(0.5,), seeds=1)
        spec_hash = compile_run_specs(specs)[0].spec_hash
        client = SweepClient(daemon.base_url)
        with pytest.raises(ServiceError) as excinfo:
            client.cached_result(spec_hash)
        assert excinfo.value.status == 404
        client.wait(client.submit(run_spec_description(specs))["id"], timeout=120)
        entry = client.cached_result(spec_hash)
        assert entry["spec_hash"] == spec_hash
        assert entry["kind"] == "run_spec"


class TestDaemonWorkerPool:
    def test_forked_workers_execute_then_serve_from_cache(self, tmp_path):
        """The default executor: a two-process pool behind the daemon."""
        specs = _specs(alphas=(0.5, 2.0, 3.0))
        expected = strip_timing_fields([run_single(spec).as_row() for spec in specs])
        daemon = ServiceDaemon(
            DaemonConfig(store_dir=tmp_path / "store", workers=2, port=0)
        )
        daemon.start()
        try:
            client = SweepClient(daemon.base_url)
            for _ in range(2):
                job = client.wait(
                    client.submit(run_spec_description(specs))["id"], timeout=120
                )
                assert job["status"] == "done"
                assert _remote_rows(client, job["id"]) == expected
            stats = client.stats()
        finally:
            daemon.stop()
        assert stats["engine_executions"] == len(specs)
        assert stats["cache_hits"] == len(specs)
        assert stats["workers"] == 2


class TestJobDescriptions:
    @pytest.mark.parametrize(
        "config",
        [
            SumDynamicsConfig.smoke(),
            RobustnessStudyConfig.smoke(),
            RobustnessStudyConfig.smoke().with_cost_model("tolerant", 3.0000001),
            RobustnessStudyConfig.smoke().with_reconnect(),
        ],
        ids=["sum", "robustness", "robustness-tolerant", "robustness-reconnect"],
    )
    def test_description_round_trips_to_the_same_tasks(self, config):
        """The wire form compiles to exactly the batch compiler's tasks."""
        if isinstance(config, SumDynamicsConfig):
            description, expected = sum_description(config), compile_sum_tasks(config)
        else:
            description = robustness_description(config)
            expected = compile_robustness_tasks(config)
        tasks = compile_job(json.loads(json.dumps(description)))
        assert [task.spec_hash for task in tasks] == [
            task.spec_hash for task in expected
        ]


class TestDaemonProtocol:
    def test_invalid_descriptions_are_400(self, daemon):
        client = SweepClient(daemon.base_url)
        robustness = robustness_description(RobustnessStudyConfig.smoke())
        good_spec = run_spec_description(_specs(alphas=(0.5,), seeds=1))["specs"][0]
        bad_family_spec = {**good_spec, "family": "zzz"}
        for description in (
            {"kind": "nonsense"},
            {"kind": "run_spec", "specs": []},
            {"kind": "run_spec", "specs": [{"bogus": 1}]},
            [1, 2, 3],
            # A JSON string where a list is expected, not four 1-letter families.
            {**robustness, "families": "tree"},
            # Names the executing registries do not hold.
            {"kind": "run_spec", "specs": [bad_family_spec]},
            {**robustness, "families": ["tree", "zzz"]},
            {**robustness, "operators": ["drop_random_edges", "no_such_operator"]},
            # Specs that execution would refuse in a worker.
            *(
                {"kind": "run_spec", "specs": [{**good_spec, **override}]}
                for override in (
                    {"alpha": -1},
                    {"k": 0},
                    {"family": "gnp"},
                    {"family": "gnp", "p": 1.5},
                    {"n": 0},
                    {"usage": "bogus"},
                    {"solver": "bogus"},
                    {"ordering": "bogus"},
                    {"ownership": "bogus"},
                )
            ),
        ):
            with pytest.raises(ServiceError) as excinfo:
                client.submit(description)
            assert excinfo.value.status == 400
        assert client.stats()["engine_executions"] == 0

    def test_unknown_job_is_404(self, daemon):
        client = SweepClient(daemon.base_url)
        with pytest.raises(ServiceError) as excinfo:
            client.job("no-such-job")
        assert excinfo.value.status == 404

    def test_results_before_done_is_409(self, daemon):
        client = SweepClient(daemon.base_url)
        job = client.submit(run_spec_description(_specs(alphas=(0.5, 2.0), n=16)))
        try:
            client.results(job["id"])
        except ServiceError as exc:
            assert exc.status == 409
        else:  # the job may legitimately finish before the results call
            assert client.job(job["id"])["status"] == "done"
        client.wait(job["id"], timeout=120)

    def test_cancel_queued_job(self, daemon):
        client = SweepClient(daemon.base_url)
        # A slower job occupies the (single, FIFO) executor ...
        running = client.submit(run_spec_description(_specs(alphas=(0.5, 2.0), n=18)))
        # ... so this one is still queued when the cancel lands.
        queued = client.submit(run_spec_description(_specs(alphas=(3.0,), n=18)))
        cancelled = client.cancel(queued["id"])
        assert cancelled["status"] in {"queued", "cancelled"}
        final = client.wait(queued["id"], timeout=120)
        assert final["status"] == "cancelled"
        assert client.wait(running["id"], timeout=120)["status"] == "done"
        # Cancelling a terminal job is a no-op.
        assert client.cancel(running["id"])["status"] == "done"

    def test_backpressure_429_when_queue_full(self, tmp_path):
        daemon = ServiceDaemon(
            DaemonConfig(
                store_dir=tmp_path / "store", in_process=True, port=0, queue_size=1
            )
        )
        daemon.start()
        try:
            client = SweepClient(daemon.base_url)
            # Large enough that it is still running while the next two
            # submissions land.
            running = client.submit(
                run_spec_description(_specs(alphas=(0.5, 1.0, 2.0), n=60))
            )
            deadline = time.monotonic() + 60
            while client.job(running["id"])["status"] == "queued":
                assert time.monotonic() < deadline, "job never started"
                time.sleep(0.01)
            waiting = client.submit(run_spec_description(_specs(alphas=(3.0,))))
            with pytest.raises(JobQueueFull):
                client.submit(run_spec_description(_specs(alphas=(4.0,))))
            client.wait(running["id"], timeout=120)
            client.wait(waiting["id"], timeout=120)
        finally:
            daemon.stop()


class TestDaemonCrashRecovery:
    """SIGKILL the real ``python -m repro serve`` process mid-job; restart."""

    @staticmethod
    def _start(store: Path) -> tuple[subprocess.Popen, SweepClient]:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src")
        process = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro",
                "serve",
                "--store",
                str(store),
                "--port",
                "0",
                "--in-process",
            ],
            env=env,
            cwd=REPO_ROOT,
            stdout=subprocess.PIPE,
            text=True,
        )
        line = process.stdout.readline()
        assert "listening on http://" in line, line
        address = line.split("http://")[1].split()[0]
        return process, SweepClient(f"http://{address}")

    def test_sigkill_restart_resumes_bit_identical(self, tmp_path):
        store = tmp_path / "store"
        specs = _specs(alphas=(0.5, 1.5, 2.0), seeds=3, n=48, max_rounds=40)
        process, client = self._start(store)
        try:
            job = client.submit(run_spec_description(specs))
            deadline = time.monotonic() + 180
            while True:
                status = client.job(job["id"])
                if status["executed"] >= 2:
                    break
                assert time.monotonic() < deadline, "job made no progress"
                assert status["status"] in {"queued", "running"}
                time.sleep(0.02)
        finally:
            process.kill()
            process.wait()
        assert status["completed"] < status["unique_tasks"], (
            "job finished before the kill; grow the grid"
        )

        process, client = self._start(store)
        try:
            final = client.wait(job["id"], timeout=300)
            assert final["status"] == "done"
            # The pre-kill work came back from the journal, not the engine.
            assert final["from_journal"] >= 2
            assert final["executed"] <= final["unique_tasks"] - 2
            rows = _remote_rows(client, job["id"])
        finally:
            process.send_signal(signal.SIGTERM)
            try:
                process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()
        assert rows == strip_timing_fields([run_single(spec).as_row() for spec in specs])

    def test_torn_job_record_is_skipped_on_recovery(self, tmp_path):
        """A torn ``.jobs/<id>.json`` (crash mid-submit) must not poison
        recovery — the submission was never acknowledged."""
        store = tmp_path / "store"
        jobs_dir = store / ".jobs"
        jobs_dir.mkdir(parents=True)
        (jobs_dir / "torn.json").write_text('{"format": "repro-daemon-j')
        daemon = ServiceDaemon(
            DaemonConfig(store_dir=store, in_process=True, port=0)
        )
        daemon.start()
        try:
            client = SweepClient(daemon.base_url)
            assert client.jobs() == []
            job = client.wait(
                client.submit(run_spec_description(_specs(alphas=(0.5,), seeds=1)))[
                    "id"
                ],
                timeout=120,
            )
            assert job["status"] == "done"
        finally:
            daemon.stop()
