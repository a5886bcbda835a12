"""Zero-dependency telemetry: metrics registry, trace spans, profiling export.

The observability layer has three pieces:

* :mod:`repro.obs.metrics` — counters and gauges with labeled children,
  collected by a :class:`MetricsRegistry` that renders the Prometheus text
  exposition format.
* :mod:`repro.obs.tracing` — context-manager spans on the monotonic clock
  with parent links, drained as Chrome ``trace_event`` dicts.
* the :class:`Telemetry` handle — process state, like the kernel backend:
  the engine, view caches, kernel dispatch and service layer each read
  :func:`get_telemetry` when they are built, and
  :meth:`repro.service.workers.WorkerRuntime.execute_traced` is the one
  place that installs a tracing handle (for the duration of one task).

Metrics are always on (a counter bump is two integer adds) and always land
in the process-wide :func:`default_registry`; tracing is opt-in.  The
disabled tracing path is a single attribute lookup on a preallocated null
span factory — pinned by ``benchmarks/test_bench_obs.py``.

Everything here is stdlib-only so any layer (including the kernels
dispatch wrappers) can import it without cycles.
"""

from __future__ import annotations

from repro.obs.metrics import (
    MetricsRegistry,
    default_registry,
    render_prometheus,
)
from repro.obs.tracing import (
    NULL_TRACER,
    NullTracer,
    Tracer,
    chrome_trace_from_summaries,
    validate_chrome_trace,
)

__all__ = [
    "MetricsRegistry",
    "NULL_TRACER",
    "NullTracer",
    "Telemetry",
    "Tracer",
    "chrome_trace_from_summaries",
    "default_registry",
    "get_telemetry",
    "render_prometheus",
    "set_telemetry",
    "validate_chrome_trace",
]


class Telemetry:
    """Handle bundling the default metrics registry and a tracer.

    The handle is process state: components take no handle parameter but
    read :func:`get_telemetry` once, when they are built.  The default
    handle's tracer is the no-op :data:`NULL_TRACER`; a
    ``Telemetry(tracing=True)`` installed with :func:`set_telemetry`
    records spans for every component built while it is installed.  Hot
    paths bind ``telemetry.span`` once so the disabled path costs one
    attribute lookup plus a constant-returning call.
    """

    __slots__ = ("registry", "tracer", "span", "event")

    def __init__(self, tracing: bool = False) -> None:
        self.registry = default_registry()
        tracer = Tracer() if tracing else NULL_TRACER
        self.tracer = tracer
        # Pre-bound recorder methods: one attribute lookup at the call site.
        self.span = tracer.span
        self.event = tracer.event

    @property
    def tracing(self) -> bool:
        return self.tracer.enabled

    def drain_events(self) -> list[dict]:
        return self.tracer.drain()


#: Process-wide default: metrics into the default registry, tracing off.
_GLOBAL_TELEMETRY = Telemetry()


def get_telemetry() -> Telemetry:
    """Return the process-wide telemetry handle."""
    return _GLOBAL_TELEMETRY


def set_telemetry(telemetry: Telemetry | None) -> Telemetry:
    """Swap the process-wide handle (``None`` installs a fresh default).

    Returns the previous handle so callers can restore it::

        previous = set_telemetry(Telemetry(tracing=True))
        try:
            ...  # components built here trace into the installed handle
        finally:
            set_telemetry(previous)
    """
    global _GLOBAL_TELEMETRY
    previous = _GLOBAL_TELEMETRY
    _GLOBAL_TELEMETRY = telemetry if telemetry is not None else Telemetry()
    return previous
