"""Closed-loop client load on the sweep daemon.

``WORKERS`` client threads share one process; each holds one connection
at a time and sends its next request only after the previous one
completed, like ``sweep --remote`` callers that each wait for their job.
A request is a *miss* job (fresh cells the daemon must execute) followed
by the same grid resubmitted (a *hit*, served from the result cache).
Completion is awaited on the job's event stream, not by polling.
"""

from __future__ import annotations

import itertools
import json
import threading
import time

from repro.service.client import SweepClient
from repro.service.jobs import run_spec_description
from repro.service.tasks import decode_result

from harness.hostspeed import reference_s
from harness.tracing import span_factory
from harness.workloads import (
    WORKERS,
    daemon_specs,
    golden_problem,
    row_digest,
    row_problems,
)

#: Seconds of load between two measurements of the host's speed.
SEGMENT_S = 2.5


def _job(client, description: dict, span) -> tuple[list, int]:
    """Submit, await the terminal event, fetch results; (results, executed)."""
    with span("client.submit"):
        job = client.submit(description)
    executed = 0
    status = None
    with span("client.wait"):
        for event in client.events(job["id"]):
            if event.get("type") == "task" and event.get("source") == "engine":
                executed += 1
            elif event.get("type") == "status":
                status = event["status"]
    if status != "done":
        raise RuntimeError(f"job {job['id']} ended {status!r}")
    with span("client.results"):
        results = client.results(job["id"])
    return results, executed


def closed_loop(
    base_url: str, seed: int, seconds: float, golden: dict, recorder=None
) -> list[dict]:
    """Drive the daemon until ``seconds`` pass; per-request outcomes.

    The load runs in segments of :data:`SEGMENT_S`.  Between segments the
    clients finish their request and stop while the host's speed is
    measured; each outcome carries the mean of the measurements before
    and after its segment (``reference_s``).  A segment with a failed
    request ends the load.
    """
    span = span_factory(recorder)
    requests = itertools.count()
    lock = threading.Lock()
    outcomes: list[dict] = []
    deadline = time.perf_counter() + seconds

    def request_once(client, request: int) -> dict:
        specs = daemon_specs(seed, request)
        outcome = {"request": request, "problems": []}
        with span("harness.request"):
            t0 = time.perf_counter()
            description = run_spec_description(specs)
            miss, miss_executed = _job(client, description, span)
            t1 = time.perf_counter()
            hit, hit_executed = _job(client, description, span)
            t2 = time.perf_counter()
        outcome.update(latency_s=t2 - t0, miss_s=t1 - t0, hit_s=t2 - t1)
        problems = outcome["problems"]
        if miss_executed != len(specs):
            problems.append(f"miss job executed {miss_executed} of {len(specs)} cells")
        if hit_executed != 0:
            problems.append(f"hit job executed {hit_executed} cells")
        if json.dumps(hit, sort_keys=True) != json.dumps(miss, sort_keys=True):
            problems.append("hit job results differ from the miss job's")
        rows = [decode_result(entry["kind"], entry["payload"]).as_row() for entry in miss]
        problems += row_problems(rows)
        outcome["digest"] = row_digest(rows)
        mismatch = golden_problem(golden, "daemon_mixed", request, outcome["digest"])
        if mismatch:
            problems.append(mismatch)
        return outcome

    def drive(segment_end: float, segment: list[dict]) -> None:
        client = SweepClient(base_url, timeout=60.0)
        while time.perf_counter() < segment_end:
            with lock:
                request = next(requests)
            try:
                outcome = request_once(client, request)
            except Exception as exc:  # noqa: BLE001 - every failure is counted
                segment.append(
                    {"request": request, "problems": [f"{type(exc).__name__}: {exc}"]}
                )
                return  # the daemon is broken: stop this client
            segment.append(outcome)

    before = reference_s()
    while time.perf_counter() < deadline:
        segment: list[dict] = []
        segment_end = min(deadline, time.perf_counter() + SEGMENT_S)
        threads = [
            threading.Thread(target=drive, args=(segment_end, segment)) for _ in range(WORKERS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        after = reference_s()
        for outcome in segment:
            outcome["reference_s"] = (before + after) / 2
        before = after
        outcomes += segment
        if any(outcome["problems"] for outcome in segment):
            break
    return sorted(outcomes, key=lambda outcome: outcome["request"])
