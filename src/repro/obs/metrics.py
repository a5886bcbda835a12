"""Metrics primitives: counters, gauges, and their registry.

Design notes
------------

Each *family* (one metric name) owns labeled *series*.  ``family.labels(...)``
returns the memoized aggregate series for a label combination;
``family.child(...)`` returns a **private** instrument whose updates also
flow into that aggregate.  Components hold children so per-instance reads
(``cache.views_built``) keep their historical meaning, while the registry
exposes the process-wide aggregate — and a child that is garbage-collected
leaves its contribution behind in the aggregate, so totals never regress.

No locks on the hot path: a counter bump is two integer adds under the
GIL.  Collection walks plain dicts and tolerates concurrent updates (a
scrape may be one increment behind a racing bump, never corrupt).
"""

from __future__ import annotations

import threading
from typing import Callable, Iterable

__all__ = [
    "Counter",
    "Gauge",
    "CounterFamily",
    "GaugeFamily",
    "MetricsRegistry",
    "default_registry",
    "render_prometheus",
]


class Counter:
    """Monotonically increasing value; ``sink`` receives mirrored adds."""

    __slots__ = ("_value", "_sink")

    def __init__(self, sink: "Counter | None" = None) -> None:
        self._value = 0
        self._sink = sink

    def inc(self, amount: int | float = 1) -> None:
        self._value += amount
        sink = self._sink
        if sink is not None:
            sink._value += amount

    @property
    def value(self) -> int | float:
        return self._value


class Gauge:
    """Point-in-time value; children mirror *deltas* into the aggregate,
    so the registry series is the sum over live children."""

    __slots__ = ("_value", "_sink", "_fn")

    def __init__(self, sink: "Gauge | None" = None) -> None:
        self._value = 0
        self._sink = sink
        self._fn: Callable[[], int | float] | None = None

    def set(self, value: int | float) -> None:
        delta = value - self._value
        self._value = value
        sink = self._sink
        if sink is not None:
            sink._value += delta

    def set_function(self, fn: Callable[[], int | float] | None) -> None:
        """Read ``value`` live from ``fn`` at collection time."""
        self._fn = fn

    @property
    def value(self) -> int | float:
        if self._fn is not None:
            return self._fn()
        return self._value


class _Family:
    """One metric name with labeled series."""

    kind = "untyped"

    def __init__(
        self,
        name: str,
        help: str = "",
        labelnames: tuple[str, ...] = (),
    ) -> None:
        self.name = name
        self.help = help
        self.labelnames = tuple(labelnames)
        self._series: dict[tuple, object] = {}
        self._lock = threading.Lock()

    def _key(self, labels: dict) -> tuple:
        if set(labels) != set(self.labelnames):
            raise ValueError(
                f"{self.name}: expected labels {self.labelnames}, got {tuple(labels)}"
            )
        return tuple(str(labels[name]) for name in self.labelnames)

    def _make(self) -> object:  # pragma: no cover - overridden
        raise NotImplementedError

    def _attach(self, aggregate) -> object:  # pragma: no cover - overridden
        raise NotImplementedError

    def labels(self, **labels):
        """The memoized aggregate series for this label combination."""
        key = self._key(labels)
        series = self._series.get(key)
        if series is None:
            with self._lock:
                series = self._series.get(key)
                if series is None:
                    series = self._make()
                    self._series[key] = series
        return series

    def child(self, **labels):
        """A private instrument mirroring into :meth:`labels`'s aggregate."""
        return self._attach(self.labels(**labels))

    def samples(self) -> Iterable[tuple[tuple, object]]:
        return list(self._series.items())


class CounterFamily(_Family):
    kind = "counter"

    def _make(self) -> Counter:
        return Counter()

    def _attach(self, aggregate: Counter) -> Counter:
        return Counter(sink=aggregate)

    def inc(self, amount: int | float = 1, **labels) -> None:
        self.labels(**labels).inc(amount)


class GaugeFamily(_Family):
    kind = "gauge"

    def _make(self) -> Gauge:
        return Gauge()

    def _attach(self, aggregate: Gauge) -> Gauge:
        return Gauge(sink=aggregate)

    def set(self, value: int | float, **labels) -> None:
        self.labels(**labels).set(value)


class MetricsRegistry:
    """Process-wide (or injected) collection of metric families."""

    def __init__(self) -> None:
        self._families: dict[str, _Family] = {}
        self._lock = threading.Lock()

    def _get_or_create(self, name: str, factory: Callable[[], _Family]) -> _Family:
        with self._lock:
            family = self._families.get(name)
            if family is None:
                family = factory()
                self._families[name] = family
            return family

    def counter(
        self,
        name: str,
        help: str = "",
        labelnames: tuple[str, ...] = (),
    ) -> CounterFamily:
        family = self._get_or_create(
            name, lambda: CounterFamily(name, help, tuple(labelnames))
        )
        if family.kind != "counter":
            raise ValueError(f"{name} already registered as {family.kind}")
        return family  # type: ignore[return-value]

    def gauge(
        self,
        name: str,
        help: str = "",
        labelnames: tuple[str, ...] = (),
    ) -> GaugeFamily:
        family = self._get_or_create(
            name, lambda: GaugeFamily(name, help, tuple(labelnames))
        )
        if family.kind != "gauge":
            raise ValueError(f"{name} already registered as {family.kind}")
        return family  # type: ignore[return-value]

    def collect(self) -> list[_Family]:
        with self._lock:
            return sorted(self._families.values(), key=lambda f: f.name)

    def snapshot(self) -> dict[str, int | float]:
        """Flat ``name{labels}`` → value map."""
        return {
            f"{family.name}{_label_suffix(family.labelnames, key)}": series.value
            for family in self.collect()
            for key, series in family.samples()
        }

    def render_prometheus(self) -> str:
        return render_prometheus(self)


def _escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _label_suffix(labelnames: tuple[str, ...], values: tuple) -> str:
    pairs = [f'{n}="{_escape(v)}"' for n, v in zip(labelnames, values)]
    return "{" + ",".join(pairs) + "}" if pairs else ""


def _format_value(value: int | float) -> str:
    if isinstance(value, bool):  # pragma: no cover - defensive
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    if value != value:
        return "NaN"
    if value == float("inf"):
        return "+Inf"
    if value == float("-inf"):
        return "-Inf"
    return repr(value)


def render_prometheus(registry: MetricsRegistry) -> str:
    """Render every family in the Prometheus text exposition format."""
    lines: list[str] = []
    for family in registry.collect():
        if family.help:
            lines.append(f"# HELP {family.name} {_escape(family.help)}")
        lines.append(f"# TYPE {family.name} {family.kind}")
        for key, series in family.samples():
            suffix = _label_suffix(family.labelnames, key)
            lines.append(f"{family.name}{suffix} {_format_value(series.value)}")
    return "\n".join(lines) + "\n"


#: The process-wide registry that `/metrics` scrapes.
_DEFAULT_REGISTRY = MetricsRegistry()


def default_registry() -> MetricsRegistry:
    return _DEFAULT_REGISTRY
