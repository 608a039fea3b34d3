"""Tests for the metrics registry."""

import pytest

from repro.observability.metrics import (
    Counter,
    Histogram,
    MetricsRegistry,
    sanitize,
)


@pytest.fixture
def registry():
    return MetricsRegistry()


class TestSanitize:
    def test_collector_names(self):
        assert sanitize("KG-W") == "kgw"
        assert sanitize("PCM-Only") == "pcmonly"
        assert sanitize("KG-N+LOO") == "kgnloo"

    def test_dotted_names_keep_hierarchy(self):
        assert sanitize("large.pcm") == "large.pcm"


class TestCounter:
    def test_inc_accumulates(self, registry):
        registry.inc("machine.socket0.llc.hits")
        registry.inc("machine.socket0.llc.hits", 4)
        assert registry.value("machine.socket0.llc.hits") == 5

    def test_counter_cannot_decrease(self, registry):
        with pytest.raises(ValueError):
            registry.inc("kernel.page_faults", -1)

    def test_missing_metric_default(self, registry):
        assert registry.value("no.such.metric") == 0
        assert registry.get("no.such.metric") is None


class TestHistogram:
    def test_summary_statistics(self, registry):
        for value in (10, 20, 30):
            registry.observe("gc.kgw.pause_cycles", value)
        hist = registry.get("gc.kgw.pause_cycles")
        assert hist.count == 3
        assert hist.mean == pytest.approx(20.0)
        assert hist.min == 10 and hist.max == 30

    def test_empty_histogram(self):
        hist = Histogram("x")
        assert hist.mean == 0.0
        assert hist.summary()["count"] == 0


class TestTypeSafety:
    def test_name_bound_to_one_type(self, registry):
        registry.inc("a.counter")
        with pytest.raises(TypeError):
            registry.observe("a.counter", 1)
        registry.observe("a.histogram", 1)
        with pytest.raises(TypeError):
            registry.inc("a.histogram")


class TestIntrospection:
    def test_names_sorted_and_prefix_filtered(self, registry):
        registry.inc("machine.socket1.mem.write_lines")
        registry.inc("machine.socket0.llc.hits")
        registry.inc("kernel.mmap_calls")
        assert registry.names("machine.") == [
            "machine.socket0.llc.hits",
            "machine.socket1.mem.write_lines",
        ]

    def test_as_dict_carries_kind(self, registry):
        registry.inc("c")
        registry.observe("h", 2)
        snapshot = registry.as_dict()
        assert snapshot["c"] == {"kind": "counter", "value": 1}
        assert snapshot["h"]["kind"] == "histogram"

    def test_render_table_lists_every_metric(self, registry):
        registry.inc("machine.qpi.crossings", 7)
        registry.observe("runner.run_seconds", 0.5)
        table = registry.render_table(title="Metrics:")
        assert "Metrics:" in table
        assert "machine.qpi.crossings" in table
        assert "counter" in table and "histogram" in table

    def test_render_empty_registry(self, registry):
        assert "no metrics" in registry.render_table()

    def test_render_table_leaves_out_excluded_names(self, registry):
        registry.inc("kernel.page_faults", 3)
        registry.inc("monitor.samples", 23)
        table = registry.render_table(exclude=["kernel.page_faults"])
        assert "monitor.samples" in table
        assert "kernel.page_faults" not in table

    def test_reset(self, registry):
        registry.inc("x")
        registry.reset()
        assert len(registry) == 0
