"""The measured child process: set-up, a ``READY`` line, requests, a result.

``python -m harness.trial --workload W --seed S --seconds T [--trace 1]``
(with ``src`` and ``sweepbench`` on ``PYTHONPATH``).  Set-up is importing
the program, resolving its kernel backend and compiling the first
request's tasks; the parent times spawn → ``READY``.  Then requests run
back to back until ``T`` seconds have passed, and the last stdout line is
the JSON result.  ``--probe`` exits right after ``READY``;
``--fingerprint`` prints the host fingerprint instead.

Untraced, sweeps run with ``SWEEP_WORKERS[workload]`` workers.  Traced
(``--trace 1``), everything runs serially in this process under
:func:`harness.tracing.instrument` — sweeps with ``workers=1,
in_process=True``, the daemon as an in-process ``ServiceDaemon`` driven by
the same client threads — and the result carries per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import subprocess
import sys
import time
from pathlib import Path

from harness.hostspeed import reference_s
from harness.tracing import SpanRecorder, instrument, span_factory, wrapper_cost
from harness.workloads import (
    SWEEP_WORKERS,
    WORKLOADS,
    compile_request,
    golden_problem,
    load_golden,
    row_digest,
    row_problems,
    run_sweep_request,
)


def fingerprint() -> dict:
    import numpy
    import scipy

    from repro.kernels import available_backends, resolve_backend

    backend = resolve_backend()
    root = Path(__file__).resolve().parents[2]
    revision = None
    if (root / ".git").exists():
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root,
            capture_output=True,
            text=True,
            check=False,
        )
        revision = done.stdout.strip() or None
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "backend": backend.name,
        "threads": backend.threads,
        "available_backends": list(available_backends()),
        "git": revision,
    }


def sweep_requests(name: str, seed: int, seconds: float, config, golden: dict, recorder=None):
    """Requests back to back until ``seconds`` pass; per-request outcomes.

    The host's speed is measured between requests; each outcome carries
    the mean of the measurements before and after it (``reference_s``).
    """
    span = span_factory(recorder)
    outcomes = []
    deadline = time.perf_counter() + seconds
    request = 0
    before = reference_s()
    while True:
        outcome = {"request": request, "problems": []}
        try:
            start = time.perf_counter()
            with span("harness.request"):
                rows = run_sweep_request(name, seed, request, config)
            outcome["latency_s"] = time.perf_counter() - start
        except Exception as exc:  # noqa: BLE001 - every failure is counted
            outcome["problems"].append(f"{type(exc).__name__}: {exc}")
            outcomes.append(outcome)
            break
        after = reference_s()
        outcome["reference_s"] = (before + after) / 2
        before = after
        outcome["digest"] = row_digest(rows)
        outcome["problems"] += row_problems(rows)
        mismatch = golden_problem(golden, name, request, outcome["digest"])
        if mismatch:
            outcome["problems"].append(mismatch)
        outcomes.append(outcome)
        request += 1
        if time.perf_counter() >= deadline:
            return outcomes
    return outcomes


_LABEL = re.compile(r'(\w+)="([^"]*)"')


def counter(snapshot: dict, family: str, **labels: str) -> float:
    """Sum of a registry family's series whose labels include ``labels``."""
    total = 0.0
    for key, value in snapshot.items():
        name, _, rest = key.partition("{")
        if name != family:
            continue
        series = dict(_LABEL.findall(rest))
        if all(series.get(label) == wanted for label, wanted in labels.items()):
            total += value
    return total


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(recorder, deltas: dict, outcomes: list[dict], cost: float) -> dict:
    """Per-layer metrics of a traced pass, per request."""
    self_s, calls = recorder.self_s, recorder.calls
    requests = max(1, len(outcomes))
    traced_s = sum(outcome.get("latency_s", 0.0) for outcome in outcomes)

    def per(value: float) -> float:
        return value / requests

    def c(family: str, **labels: str) -> float:
        return counter(deltas, family, **labels)

    metrics = {}
    for name in (
        "kernels.bfs",
        "kernels.bfs_reduce",
        "kernels.cover_search",
        "solvers.set_cover",
        "best_response.max",
        "best_response.cover_context",
        "metrics.profile",
        "views.refresh_dirty",
        "views.get",
        "engine.run",
        "service.compile",
        "service.execute",
    ):
        metrics[f"{name}.self_s"] = per(self_s.get(name, 0.0))
    for name in (
        "kernels.bfs",
        "kernels.cover_search",
        "solvers.set_cover",
        "best_response.sum",
        "metrics.social_cost",
        "views.refresh_dirty",
        "engine.run",
        "engine.certify",
        "robustness.perturb",
        "service.execute",
        "service.submit",
        "service.journal_append",
        "service.cache_put",
        "service.cache_get",
    ):
        metrics[f"{name}.calls"] = per(calls.get(name, 0))
    metrics["kernels.bfs.sources"] = per(c("repro_kernel_sources_total", kernel="bfs"))
    metrics["kernels.bfs_reduce.sources"] = per(
        c("repro_kernel_sources_total", kernel="bfs_reduce")
    )
    # SumNCG replies run on paper_grid only: their share shows as the gap
    # between the total and the MaxNCG self time.
    metrics["best_response.self_s"] = per(
        self_s.get("best_response.max", 0.0) + self_s.get("best_response.sum", 0.0)
    )
    metrics["best_response.calls"] = per(
        calls.get("best_response.max", 0) + calls.get("best_response.sum", 0)
    )
    metrics["views.store_hit_ratio"] = _ratio(
        c("repro_view_store_ops_total", op="hit"),
        c("repro_view_store_ops_total", op="hit") + c("repro_view_store_ops_total", op="miss"),
    )
    metrics["engine.rounds"] = per(c("repro_engine_rounds_total"))
    metrics["engine.memo_hit_ratio"] = _ratio(
        c("repro_engine_responses_total", result="reused"),
        c("repro_engine_responses_total"),
    )
    metrics["engine.cover_context_reuse_ratio"] = _ratio(
        c("repro_engine_cover_contexts_total", result="reused"),
        c("repro_engine_cover_contexts_total"),
    )
    metrics["service.cache_hit_ratio"] = _ratio(
        c("repro_daemon_task_sources_total", source="cache"),
        c("repro_daemon_task_sources_total"),
    )
    metrics["service.session_reuse_ratio"] = _ratio(
        c("repro_worker_cache_total", cache="session", event="reused"),
        c("repro_worker_cache_total", cache="session"),
    )
    metrics["trace.request_s"] = per(traced_s)
    metrics["trace.unattributed_s"] = per(self_s.get("harness.request", 0.0))
    metrics["trace.overhead_frac"] = _ratio(sum(calls.values()) * cost, traced_s)
    return metrics


def span_table(recorder, requests: int) -> list[dict]:
    """Every span name: self seconds and calls per request."""
    self_s, calls = recorder.self_s, recorder.calls
    requests = max(1, requests)
    return [
        {"span": name, "self_s": self_s[name] / requests, "calls": calls[name] / requests}
        for name in sorted(self_s, key=self_s.get, reverse=True)
    ]


def traced(name: str, seed: int, seconds: float, golden: dict, state: Path) -> dict:
    from repro.obs import default_registry

    cost = wrapper_cost()
    recorder = SpanRecorder()
    before = default_registry().snapshot()
    with instrument(recorder):
        if name == "daemon_mixed":
            from repro.service.daemon import DaemonConfig, ServiceDaemon

            from harness.load import closed_loop

            daemon = ServiceDaemon(DaemonConfig(store_dir=state / "traced-store", in_process=True))
            daemon.start()
            try:
                outcomes = closed_loop(daemon.base_url, seed, seconds, golden, recorder)
            finally:
                daemon.stop()
        else:
            from repro.service.api import ServiceConfig

            config = ServiceConfig(workers=1, in_process=True)
            outcomes = sweep_requests(name, seed, seconds, config, golden, recorder)
    after = default_registry().snapshot()
    deltas = {key: value - before.get(key, 0) for key, value in after.items()}
    return {
        "outcomes": outcomes,
        "metrics": layer_metrics(recorder, deltas, outcomes, cost),
        "spans": span_table(recorder, len(outcomes)),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--state", type=Path, help="temporary directory of this run")
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--fingerprint", action="store_true")
    args = parser.parse_args(argv)
    if args.fingerprint:
        print(json.dumps(fingerprint()))
        return 0

    from repro.kernels import resolve_backend
    from repro.service.api import ServiceConfig

    resolve_backend()
    if args.workload != "daemon_mixed":
        compile_request(args.workload, args.seed, 0)
    print("READY", flush=True)
    if args.probe:
        return 0
    golden = load_golden(args.seed)
    if args.trace:
        result = traced(args.workload, args.seed, args.seconds, golden, args.state)
    else:
        config = ServiceConfig(workers=SWEEP_WORKERS[args.workload])
        result = {
            "outcomes": sweep_requests(args.workload, args.seed, args.seconds, config, golden)
        }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
