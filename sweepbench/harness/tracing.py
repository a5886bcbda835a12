"""Spans recorded from outside the program, around each layer's entry points.

:func:`instrument` wraps public class methods, the module bindings through
which one layer calls the next, and — via a kernel backend registered
with the public :func:`repro.kernels.register_backend` — the three
kernels of the resolved default backend.  Every wrapper opens a span on a
thread-local stack; a span's *self time* is its duration minus the
durations of the spans it directly encloses, so the self times of one
span tree add up to its root's duration exactly.

Modules are fetched with :func:`importlib.import_module`:
``repro.core`` re-exports a *function* named ``best_response``, so the
attribute path ``repro.core.best_response`` is not the module.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import threading
import time
from contextlib import contextmanager, nullcontext

#: ``(module, class, method, span name)`` — class methods wrapped in place.
CLASS_METHODS = (
    ("repro.service.workers", "WorkerRuntime", "execute", "service.execute"),
    ("repro.engine.core", "DynamicsEngine", "run", "engine.run"),
    ("repro.engine.core", "DynamicsEngine", "certify", "engine.certify"),
    ("repro.engine.views", "IncrementalViewCache", "refresh_dirty", "views.refresh_dirty"),
    ("repro.engine.views", "IncrementalViewCache", "get", "views.get"),
    ("repro.service.jobs", "JobManager", "submit", "service.submit"),
    ("repro.service.jobs", "JobManager", "execute", "service.job_execute"),
    ("repro.service.jobs", "JobManager", "collect_results", "service.collect_results"),
    ("repro.service.jobs", "ResultCache", "get", "service.cache_get"),
    ("repro.service.jobs", "ResultCache", "put", "service.cache_put"),
    ("repro.service.journal", "SweepJournal", "append", "service.journal_append"),
)


def _best_response_span(args: tuple, kwargs: dict) -> str:
    game = args[2] if len(args) > 2 else kwargs["game"]
    return f"best_response.{game.usage.value}"


#: ``(module, attribute, span name)`` — the binding a *consumer* module
#: calls through; patching the defining module would miss these.
BINDINGS = (
    ("repro.engine.core", "best_response", _best_response_span),
    ("repro.engine.core", "max_cover_context", "best_response.cover_context"),
    ("repro.engine.core", "compute_profile_metrics", "metrics.profile"),
    # Sweep workers import it at call time (robustness checkpoints).
    ("repro.core.metrics", "compute_profile_metrics", "metrics.profile"),
    ("repro.core.best_response", "solve_set_cover", "solvers.set_cover"),
    ("repro.experiments.extensions.robustness", "apply_perturbation", "robustness.perturb"),
    ("repro.experiments.extensions.robustness", "social_cost", "metrics.social_cost"),
    ("repro.experiments.extensions.robustness", "compute_profile_metrics", "metrics.profile"),
    ("repro.service.jobs", "compile_job", "service.compile"),
    ("repro.service.api", "compile_run_specs", "service.compile"),
    ("repro.service.api", "compile_robustness_tasks", "service.compile"),
)

KERNELS = ("bfs", "bfs_reduce", "cover_search")

#: Registry name of the timing backend wrapping the resolved default one.
TIMING_BACKEND = "sweepbench-timing"


class SpanRecorder:
    """Per-name self time and call count of nested spans, any thread.

    ``begin``/``end`` accept an explicit ``now`` so aggregation can be
    driven with synthetic timestamps; wrappers read the monotonic clock.
    """

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        #: One ``(open frames, self seconds, calls)`` triple per thread, so
        #: the hot path never takes a lock.
        self._threads: list[tuple[list, dict, dict]] = []

    def _state(self) -> tuple[list, dict, dict]:
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = ([], {}, {})
            with self._lock:
                self._threads.append(state)
        return state

    def begin(self, name: str, now: float | None = None) -> None:
        self._state()[0].append([name, time.perf_counter() if now is None else now, 0.0])

    def end(self, now: float | None = None) -> None:
        """Close the innermost open span of this thread."""
        now = time.perf_counter() if now is None else now
        frames, self_s, calls = self._state()
        name, start, children = frames.pop()
        duration = now - start
        if frames:
            frames[-1][2] += duration
        self_s[name] = self_s.get(name, 0.0) + duration - children
        calls[name] = calls.get(name, 0) + 1

    def _merged(self, part: int) -> dict:
        merged: dict = {}
        with self._lock:
            states = list(self._threads)
        for state in states:
            for name, value in list(state[part].items()):
                merged[name] = merged.get(name, 0) + value
        return merged

    @property
    def self_s(self) -> dict[str, float]:
        """Self seconds per span name, summed over threads."""
        return self._merged(1)

    @property
    def calls(self) -> dict[str, int]:
        """Closed spans per name, summed over threads."""
        return self._merged(2)

    @contextmanager
    def span(self, name: str):
        self.begin(name)
        try:
            yield
        finally:
            self.end()

    def wrap(self, name, function):
        """``function`` inside a span; ``name`` may be ``(args, kwargs) -> str``."""
        begin, end = self.begin, self.end
        fixed = isinstance(name, str)

        @functools.wraps(function)
        def timed(*args, **kwargs):
            begin(name if fixed else name(args, kwargs))
            try:
                return function(*args, **kwargs)
            finally:
                end()

        return timed


def span_factory(recorder: SpanRecorder | None):
    """``recorder.span``, or a factory of no-op spans without a recorder."""
    if recorder is None:
        return lambda name: nullcontext()
    return recorder.span


def _unavailable(threads: int = 1):
    from repro.kernels import KernelUnavailableError

    raise KernelUnavailableError(f"{TIMING_BACKEND} is only live inside instrument()")


@contextmanager
def instrument(recorder: SpanRecorder):
    """Wrap every layer entry point in spans for the duration of the block.

    On exit every patched attribute is set back to the original object and
    the timing backend is re-registered as unavailable, so nothing resolves
    to it any more.
    """
    from repro import kernels

    patches = []
    for module_name, class_name, attribute, name in CLASS_METHODS:
        owner = getattr(importlib.import_module(module_name), class_name)
        patches.append((owner, attribute, owner.__dict__[attribute], name))
    for module_name, attribute, name in BINDINGS:
        owner = importlib.import_module(module_name)
        patches.append((owner, attribute, owner.__dict__[attribute], name))

    base = kernels.resolve_backend()
    timed = dataclasses.replace(
        base,
        name=TIMING_BACKEND,
        **{
            kernel: recorder.wrap(f"kernels.{kernel}", getattr(base, kernel))
            for kernel in KERNELS
        },
    )
    kernels.register_backend(TIMING_BACKEND, lambda threads=1: timed)
    try:
        for owner, attribute, original, name in patches:
            setattr(owner, attribute, recorder.wrap(name, original))
        with kernels.use_backend(TIMING_BACKEND):
            yield
    finally:
        for owner, attribute, original, _ in patches:
            setattr(owner, attribute, original)
        kernels.register_backend(TIMING_BACKEND, _unavailable)


def wrapper_cost(calls: int = 20000) -> float:
    """Calibrated extra seconds one span wrapper adds to a call."""
    recorder = SpanRecorder()

    def nothing():
        return None

    timed = recorder.wrap("calibration", nothing)
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        for _ in range(calls):
            nothing()
        plain = time.perf_counter() - start
        start = time.perf_counter()
        for _ in range(calls):
            timed()
        best = min(best, (time.perf_counter() - start - plain) / calls)
    return max(best, 0.0)
