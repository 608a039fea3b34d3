"""Tests for the narrator logger and the run-report builder."""

import json
import logging

import pytest

from repro.core.platform import EmulationMode, MeasurementResult
from repro.observability import log as obslog
from repro.observability.report import (
    REPORT_SCHEMA,
    result_metrics,
    run_report,
)
from repro.runtime.jvm import RuntimeStats


class TestNarrator:
    def teardown_method(self):
        obslog.disable_console()

    def test_narrate_goes_through_repro_logger(self, caplog):
        with caplog.at_level(logging.INFO, logger="repro"):
            obslog.narrate("ran %s", "fop")
        assert caplog.records[0].message == "ran fop"
        assert caplog.records[0].name == "repro"

    def test_get_logger_children(self):
        assert obslog.get_logger().name == "repro"
        assert obslog.get_logger("harness").name == "repro.harness"

    def test_enable_console_idempotent(self):
        first = obslog.enable_console()
        second = obslog.enable_console()
        assert first is second
        handlers = [h for h in obslog.get_logger().handlers
                    if getattr(h, "_repro_console_handler", False)]
        assert len(handlers) == 1

    def test_disable_console_removes_handler(self):
        obslog.enable_console()
        obslog.disable_console()
        assert not [h for h in obslog.get_logger().handlers
                    if getattr(h, "_repro_console_handler", False)]


def _result(**overrides) -> MeasurementResult:
    fields = dict(
        benchmark="fop",
        collector="KG-W",
        mode=EmulationMode.EMULATION,
        instances=1,
        pcm_write_lines=100,
        dram_write_lines=50,
        elapsed_seconds=0.001,
        per_tag_pcm_writes={"mature.pcm": 80},
        per_tag_dram_writes={"nursery": 40},
        instance_stats=[RuntimeStats(minor_gcs=3, pauses=[5, 7])],
        node_counters=[
            {"node": 0, "kind": "DRAM", "read_lines": 9, "write_lines": 50},
            {"node": 1, "kind": "PCM", "read_lines": 4, "write_lines": 100},
        ],
        llc_stats=[
            {"socket": 0, "hits": 90, "misses": 10, "evictions": 5,
             "dirty_evictions": 2, "hit_rate": 0.9},
            {"socket": 1, "hits": 0, "misses": 0, "evictions": 0,
             "dirty_evictions": 0, "hit_rate": 0.0},
        ],
        qpi_crossings=13,
        host_seconds=1.25,
    )
    fields.update(overrides)
    return MeasurementResult(**fields)


class TestRunReport:
    def test_core_fields(self):
        report = run_report(_result())
        assert report["schema"] == REPORT_SCHEMA
        assert report["benchmark"] == "fop"
        assert report["mode"] == "emulation"
        assert report["wall_time"] == {"emulated_seconds": 0.001,
                                       "host_seconds": 1.25}
        assert report["qpi_crossings"] == 13

    def test_per_socket_counters_and_llc(self):
        report = run_report(_result())
        socket0, socket1 = report["sockets"]
        assert socket0["read_lines"] == 9 and socket0["write_lines"] == 50
        assert socket1["kind"] == "PCM" and socket1["write_lines"] == 100
        assert socket0["llc"]["hit_rate"] == pytest.approx(0.9)
        assert "socket" not in socket0["llc"]

    def test_gc_section(self):
        spans = [{"type": "span", "name": "gc.minor", "ts": 0.0,
                  "dur": 0.1}]
        report = run_report(_result(), gc_spans=spans)
        assert report["gc"]["phases"] == spans
        stats = report["gc"]["instances"][0]
        assert stats["minor_gcs"] == 3
        assert stats["pause_count"] == 2
        assert stats["max_pause_cycles"] == 7

    def test_wear_section_only_when_tracked(self):
        assert "wear" not in run_report(_result())
        tracked = run_report(_result(wear_efficiency=0.9,
                                     wear_imbalance=2.0))
        assert tracked["wear"] == {"efficiency": 0.9, "imbalance": 2.0}

    def test_metrics_passthrough_and_serialisable(self):
        report = run_report(_result(), metrics={"a.b": {"kind": "counter",
                                                        "value": 1}})
        assert report["metrics"]["a.b"]["value"] == 1
        json.dumps(report)  # must be JSON-serialisable as-is

    def test_trace_dropped_surfaced_when_given(self):
        assert "trace" not in run_report(_result())
        report = run_report(_result(), trace_dropped=7)
        assert report["trace"] == {"dropped": 7}
        # Zero is still information: the span record is complete.
        assert run_report(_result(), trace_dropped=0)["trace"] == \
            {"dropped": 0}

    def test_profile_attribution_rides_on_result(self):
        assert "profile" not in run_report(_result())
        profile = {"schema": "repro.profile/v1", "meta": {},
                   "self": {"run": {"pcm.writes": 100}}, "spans": []}
        report = run_report(_result(profile=profile))
        assert report["profile"]["schema"] == "repro.profile/v1"
        assert report["profile"]["attribution"]["run"]["pcm.writes"] == 100
        json.dumps(report)


class TestResultMetrics:
    def test_names_every_counter_of_the_result(self):
        second = RuntimeStats(minor_gcs=2, full_gcs=1, pauses=[9])
        result = _result(
            instance_stats=[RuntimeStats(minor_gcs=3, pauses=[5, 7]),
                            second],
            kernel_counters={"mmap_calls": 9, "page_faults": 2,
                             "scheduler.dispatches": 188},
            pages_migrated=4, migration_writes=256)
        registry = result_metrics(result)
        values = {name: registry.value(name) for name in registry.names()
                  if not name.endswith("pause_cycles")}
        assert values["machine.socket0.llc.hits"] == 90
        assert values["machine.socket0.llc.dirty_evictions"] == 2
        assert values["machine.socket1.mem.write_lines"] == 100
        assert values["machine.qpi.crossings"] == 13
        assert values["kernel.mmap_calls"] == 9
        assert values["kernel.scheduler.dispatches"] == 188
        assert values["kernel.pages_migrated"] == 4
        assert values["kernel.migration_writes"] == 256
        # Summed over instances, under the sanitised collector name.
        assert values["gc.kgw.minor_collections"] == 5
        assert values["gc.kgw.full_collections"] == 1
        pauses = registry.get("gc.kgw.pause_cycles")
        assert (pauses.count, pauses.min, pauses.max) == (3, 5, 9)
