"""Service-layer observability: /stats liveness, /metrics, journal records.

Pins the telemetry wiring through the daemon and orchestrator:

* ``GET /stats`` reads the live registry-backed counters at request time —
  two sequential calls around a job must differ (the regression guard for
  a snapshot captured at handler/executor build time);
* ``GET /metrics`` serves the Prometheus text exposition from a live
  daemon, and it aggregates the same counters ``/stats`` reports;
* telemetry journal records are additive: a telemetry-on journal resumes
  to the exact rows of a telemetry-off one, old journals (no telemetry
  records) stay valid, and ``python -m repro trace`` renders the records
  into a schema-valid Chrome trace;
* :meth:`WorkerRuntime.execute_traced` is the one place a handle is
  installed: a tracing runtime installs its handle for one task and
  restores the previous one, even when the task raises.
"""

from __future__ import annotations

import json
import subprocess
import sys
import urllib.request
from pathlib import Path

import pytest

from repro.experiments.runner import RunSpec
from repro.obs import get_telemetry
from repro.service.api import ServiceConfig, run_spec_sweep
from repro.service.client import SweepClient
from repro.service.daemon import DaemonConfig, ServiceDaemon
from repro.service.journal import (
    TELEMETRY_KIND,
    iter_result_records,
    iter_telemetry_records,
    load_jsonl_records,
)
from repro.service.tasks import (
    TELEMETRY_SUMMARY_FIELDS,
    TIMING_FIELDS,
    compile_calls,
    strip_timing_fields,
)
from repro.service.workers import WorkerRuntime

REPO_ROOT = Path(__file__).resolve().parent.parent.parent


def _specs(alphas=(0.5, 2.0), seeds=2, n=10) -> list[RunSpec]:
    return [
        RunSpec(
            family="tree",
            n=n,
            alpha=alpha,
            k=2,
            seed=seed,
            solver="greedy",
            max_rounds=30,
        )
        for alpha in alphas
        for seed in range(seeds)
    ]


def _seen_handle(_item):
    """Call-task body: the identity and tracing flag of the installed handle."""
    handle = get_telemetry()
    return [id(handle), handle.tracing]


def _failing_task(_item):
    with get_telemetry().span("inside.failing_task"):
        raise ValueError("task failed")


@pytest.fixture()
def daemon(tmp_path):
    instance = ServiceDaemon(
        DaemonConfig(
            store_dir=tmp_path / "store", in_process=True, port=0, telemetry=True
        )
    )
    instance.start()
    try:
        yield instance
    finally:
        instance.stop()


def _get(daemon, path: str) -> tuple[str, str]:
    with urllib.request.urlopen(daemon.base_url + path) as response:
        return response.headers.get_content_type(), response.read().decode()


class TestStatsLiveness:
    def test_sequential_stats_reflect_job_execution(self, daemon):
        """Two /stats reads around a job must differ (no stale snapshot)."""
        client = SweepClient(daemon.base_url)
        before = client.stats()
        client.run_specs(_specs(alphas=(2.0,)))
        after = client.stats()
        executed = after["engine_executions"] - before["engine_executions"]
        assert executed == 2
        assert after["jobs_submitted"] == before["jobs_submitted"] + 1
        # A second identical job is pure cache hits — and /stats sees that
        # immediately too, from the same registry.
        client.run_specs(_specs(alphas=(2.0,)))
        final = client.stats()
        assert final["engine_executions"] == after["engine_executions"]
        assert final["cache_hits"] > after["cache_hits"]


class TestMetricsEndpoint:
    def test_prometheus_text_format(self, daemon):
        client = SweepClient(daemon.base_url)
        client.run_specs(_specs(alphas=(0.5,)))
        content_type, body = _get(daemon, "/metrics")
        assert content_type == "text/plain"
        assert "# TYPE repro_daemon_jobs_submitted_total counter" in body
        assert "# TYPE repro_daemon_task_sources_total counter" in body
        assert "# TYPE repro_engine_rounds_total counter" in body
        assert "repro_daemon_queue_depth" in body

    def test_metrics_agree_with_stats(self, daemon):
        # The registry is process-wide (other daemons in this test run feed
        # the same aggregates), so compare deltas around a job — they must
        # match the per-daemon counters /stats reports exactly.
        def scrape():
            _, body = _get(daemon, "/metrics")
            values = {}
            for line in body.splitlines():
                if line.startswith("#") or not line.strip():
                    continue
                name, _, value = line.rpartition(" ")
                values[name] = float(value)
            return values

        client = SweepClient(daemon.base_url)
        before = scrape()
        stats_before = client.stats()
        client.run_specs(_specs(alphas=(4.0,), seeds=1))
        after = scrape()
        stats_after = client.stats()

        engine = 'repro_daemon_task_sources_total{source="engine"}'
        jobs = "repro_daemon_jobs_submitted_total"
        assert after[engine] - before.get(engine, 0.0) == (
            stats_after["engine_executions"] - stats_before["engine_executions"]
        )
        assert after[jobs] - before.get(jobs, 0.0) == (
            stats_after["jobs_submitted"] - stats_before["jobs_submitted"]
        )


class TestTelemetryJournal:
    def test_fields_masked_by_timing_fields(self):
        assert TELEMETRY_SUMMARY_FIELDS <= TIMING_FIELDS

    def test_telemetry_records_are_additive(self, tmp_path):
        specs = _specs()
        off = run_spec_sweep(
            specs,
            ServiceConfig(
                journal_dir=tmp_path / "off", experiment="sweep", in_process=True
            ),
        )
        on = run_spec_sweep(
            specs,
            ServiceConfig(
                journal_dir=tmp_path / "on",
                experiment="sweep",
                in_process=True,
                telemetry=True,
            ),
        )
        rows_off = strip_timing_fields([r.as_row() for r in off])
        rows_on = strip_timing_fields([r.as_row() for r in on])
        assert rows_on == rows_off

        records = load_jsonl_records(tmp_path / "on" / "sweep" / "journal.jsonl")
        results = iter_result_records(records)
        telemetry = iter_telemetry_records(records)
        assert len(results) == len(specs)
        assert len(telemetry) == len(specs)
        assert all(r["kind"] == TELEMETRY_KIND for r in telemetry)
        for record in telemetry:
            payload = record["payload"]
            assert payload["span_count"] == len(payload["events"]) > 0
            assert payload["spec_hash"] == record["spec_hash"]

        # The telemetry-off journal simply contains none — the old format.
        old = load_jsonl_records(tmp_path / "off" / "sweep" / "journal.jsonl")
        assert iter_telemetry_records(old) == []

    def test_resume_skips_telemetry_records(self, tmp_path):
        specs = _specs()
        first = run_spec_sweep(
            specs,
            ServiceConfig(
                journal_dir=tmp_path,
                experiment="sweep",
                in_process=True,
                telemetry=True,
            ),
        )
        resumed = run_spec_sweep(
            specs,
            ServiceConfig(
                journal_dir=tmp_path,
                experiment="sweep",
                in_process=True,
                resume=True,
                telemetry=True,
            ),
        )
        assert strip_timing_fields(
            [r.as_row() for r in resumed]
        ) == strip_timing_fields([r.as_row() for r in first])
        # Fully-resumed sweep: every task was served from the journal, so
        # no new result records (and no new telemetry) were appended.
        records = load_jsonl_records(tmp_path / "sweep" / "journal.jsonl")
        assert len(iter_result_records(records)) == len(specs)
        assert len(iter_telemetry_records(records)) == len(specs)


class TestTraceExport:
    def test_cli_exports_valid_chrome_trace(self, tmp_path):
        from repro.obs import validate_chrome_trace

        run_spec_sweep(
            _specs(alphas=(0.5,)),
            ServiceConfig(
                journal_dir=tmp_path,
                experiment="sweep",
                in_process=True,
                telemetry=True,
            ),
        )
        completed = subprocess.run(
            [sys.executable, "-m", "repro", "trace", str(tmp_path)],
            capture_output=True,
            text=True,
            cwd=REPO_ROOT,
            env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
        )
        assert completed.returncode == 0, completed.stderr
        trace_path = tmp_path / "sweep" / "trace.json"
        document = json.loads(trace_path.read_text())
        assert validate_chrome_trace(document) == []
        names = {event["name"] for event in document["traceEvents"]}
        assert {"task.execute", "engine.run", "engine.round"} <= names

    def test_cli_errors_without_telemetry_records(self, tmp_path):
        run_spec_sweep(
            _specs(alphas=(0.5,), seeds=1),
            ServiceConfig(
                journal_dir=tmp_path, experiment="sweep", in_process=True
            ),
        )
        completed = subprocess.run(
            [sys.executable, "-m", "repro", "trace", str(tmp_path)],
            capture_output=True,
            text=True,
            cwd=REPO_ROOT,
            env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
        )
        assert completed.returncode != 0
        assert "--telemetry" in completed.stderr


class TestRuntimeHandle:
    def test_tracing_runtime_installs_its_handle_for_the_task_only(self):
        previous = get_telemetry()
        (task,) = compile_calls(_seen_handle, [0])
        payload, summary = WorkerRuntime(tracing=True).execute_traced(task)
        handle_id, tracing = payload
        assert tracing is True
        assert handle_id != id(previous)
        assert get_telemetry() is previous
        assert summary["span_count"] == 1
        assert summary["events"][0]["name"] == "task.execute"

    def test_tracing_runtime_restores_the_handle_when_a_task_raises(self):
        previous = get_telemetry()
        runtime = WorkerRuntime(tracing=True)
        (failing,) = compile_calls(_failing_task, [0])
        with pytest.raises(ValueError, match="task failed"):
            runtime.execute_traced(failing)
        assert get_telemetry() is previous
        # The failed task's spans were dropped, not carried into the next.
        (task,) = compile_calls(_seen_handle, [1])
        _, summary = runtime.execute_traced(task)
        assert [event["name"] for event in summary["events"]] == ["task.execute"]

    def test_untraced_runtime_installs_no_handle(self):
        previous = get_telemetry()
        (task,) = compile_calls(_seen_handle, [0])
        payload, summary = WorkerRuntime().execute_traced(task)
        assert payload == [id(previous), previous.tracing]
        assert summary is None
        assert get_telemetry() is previous
