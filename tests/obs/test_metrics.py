"""Unit tests for the metrics primitives and registry."""

import math

import pytest

from repro.obs.metrics import (
    MetricsRegistry,
    default_registry,
    render_prometheus,
)


class TestCounterFamily:
    def test_labels_memoized(self):
        registry = MetricsRegistry()
        family = registry.counter("c_total", "help", labelnames=("op",))
        assert family.labels(op="hit") is family.labels(op="hit")
        assert family.labels(op="hit") is not family.labels(op="miss")

    def test_label_validation(self):
        registry = MetricsRegistry()
        family = registry.counter("c_total", "help", labelnames=("op",))
        with pytest.raises(ValueError):
            family.labels(wrong="x")
        with pytest.raises(ValueError):
            family.labels()

    def test_child_mirrors_into_aggregate(self):
        registry = MetricsRegistry()
        family = registry.counter("c_total", "help", labelnames=("op",))
        a = family.child(op="hit")
        b = family.child(op="hit")
        a.inc()
        a.inc(2)
        b.inc()
        assert a.value == 3
        assert b.value == 1
        assert family.labels(op="hit").value == 4

    def test_dropped_child_leaves_contribution(self):
        registry = MetricsRegistry()
        family = registry.counter("c_total", "help")
        child = family.child()
        child.inc(5)
        del child
        assert family.labels().value == 5

    def test_family_inc_shorthand(self):
        registry = MetricsRegistry()
        family = registry.counter("c_total", "help", labelnames=("op",))
        family.inc(op="hit")
        family.inc(3, op="hit")
        assert family.labels(op="hit").value == 4


class TestGaugeFamily:
    def test_child_set_mirrors_delta(self):
        registry = MetricsRegistry()
        family = registry.gauge("g", "help", labelnames=("shard",))
        a = family.child(shard="0")
        b = family.child(shard="0")
        a.set(10)
        b.set(4)
        a.set(7)  # delta -3
        assert family.labels(shard="0").value == 11  # 7 + 4

    def test_set_function_live_read(self):
        registry = MetricsRegistry()
        backing = {"n": 1}
        gauge = registry.gauge("g", "help").labels()
        gauge.set_function(lambda: backing["n"])
        assert gauge.value == 1
        backing["n"] = 9
        assert gauge.value == 9


class TestRegistry:
    def test_same_name_same_family(self):
        registry = MetricsRegistry()
        assert registry.counter("x_total") is registry.counter("x_total")

    def test_kind_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.counter("x_total")
        with pytest.raises(ValueError):
            registry.gauge("x_total")

    def test_snapshot_flat_names(self):
        registry = MetricsRegistry()
        registry.counter("c_total", labelnames=("op",)).inc(op="hit")
        registry.gauge("g").labels().set(2)
        snap = registry.snapshot()
        assert snap['c_total{op="hit"}'] == 1
        assert snap["g"] == 2

    def test_default_registry_is_singleton(self):
        assert default_registry() is default_registry()


class TestPrometheusRender:
    def test_counter_and_gauge_lines(self):
        registry = MetricsRegistry()
        registry.counter("c_total", "counts things", labelnames=("op",)).inc(
            2, op="hit"
        )
        registry.gauge("g", "a gauge").labels().set(7)
        text = render_prometheus(registry)
        assert "# HELP c_total counts things" in text
        assert "# TYPE c_total counter" in text
        assert 'c_total{op="hit"} 2' in text
        assert "# TYPE g gauge" in text
        assert "g 7" in text
        assert text.endswith("\n")

    def test_label_escaping(self):
        registry = MetricsRegistry()
        registry.counter("c_total", labelnames=("path",)).inc(
            path='a"b\\c\nd'
        )
        text = render_prometheus(registry)
        assert 'path="a\\"b\\\\c\\nd"' in text

    def test_nan_and_inf_values(self):
        registry = MetricsRegistry()
        registry.gauge("g_nan").labels().set(math.nan)
        registry.gauge("g_inf").labels().set(math.inf)
        text = render_prometheus(registry)
        assert "g_nan NaN" in text
        assert "g_inf +Inf" in text
