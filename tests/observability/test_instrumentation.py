"""Instrumentation wiring: the emulation layers feed tracer/metrics.

These tests exercise the instrumented sites with the small test
machines from ``tests.conftest`` — no full benchmark runs needed.
"""

import pytest

from repro.config import PAGE_SIZE
from repro.observability.trace import TRACER

from tests.conftest import build_test_machine, build_test_vm


@pytest.fixture
def traced():
    with TRACER.capture() as tracer:
        yield tracer


class TestMachineCounters:
    def test_qpi_crossings_count_remote_misses(self, kernel):
        process = kernel.create_process(affinity_socket=0)
        kernel.mmap_bind(process, 0x10000, PAGE_SIZE, node_id=1)
        thread = process.spawn_thread()
        thread.access(0x10000, 64, False)
        assert kernel.machine.qpi_crossings == 1
        # Local accesses do not cross the interconnect.
        kernel.mmap_bind(process, 0x20000, PAGE_SIZE, node_id=0)
        thread.access(0x20000, 64, False)
        assert kernel.machine.qpi_crossings == 1

    def test_reset_counters_clears_qpi(self, kernel):
        kernel.machine.qpi_crossings = 5
        kernel.machine.reset_counters()
        assert kernel.machine.qpi_crossings == 0

    def test_llc_hit_rate_and_as_dict(self, machine):
        llc = machine.sockets[0].llc
        llc.access(0, False)
        llc.access(0, False)
        snapshot = llc.stats.as_dict()
        assert snapshot["hits"] == 1 and snapshot["misses"] == 1
        assert snapshot["hit_rate"] == pytest.approx(0.5)


class TestKernelCounters:
    def test_mmap_munmap_counters(self, kernel):
        process = kernel.create_process()
        kernel.mmap_bind(process, 0x10000, 2 * PAGE_SIZE, node_id=0)
        assert kernel.mmap_calls == 1
        assert kernel.pages_mapped == 2
        kernel.retag_range(process, 0x10000, 2 * PAGE_SIZE, "mature.pcm")
        assert kernel.retag_calls == 1
        kernel.munmap(process, 0x10000, PAGE_SIZE)
        assert kernel.munmap_calls == 1
        assert kernel.pages_unmapped == 1

    def test_mbind_trace_event(self, kernel, traced):
        process = kernel.create_process()
        kernel.mmap_bind(process, 0x10000, PAGE_SIZE, node_id=1,
                         tag="mature.pcm")
        (event,) = traced.events("kernel.mbind")
        assert event["attrs"]["node"] == 1
        assert event["attrs"]["tag"] == "mature.pcm"

    def test_page_fault_counted(self, kernel):
        from repro.kernel.pagetable import PageFault

        process = kernel.create_process()
        thread = process.spawn_thread()
        with pytest.raises(PageFault):
            thread.access(0xDEAD000, 8, False)
        assert kernel.page_faults == 1


class TestSchedulerCounters:
    def test_dispatches_counted(self):
        from repro.kernel.scheduler import Scheduler

        def instance(quanta):
            for _ in range(quanta):
                yield

        scheduler = Scheduler(seed=1)
        scheduler.run([instance(3), instance(1)])
        assert scheduler.dispatches == 3 + 1 + 2  # final StopIteration pulls

    def test_dispatches_zero_before_run(self):
        from repro.kernel.scheduler import Scheduler

        assert Scheduler().dispatches == 0


class TestGCSpans:
    def test_minor_collections_emit_spans(self, traced):
        vm = build_test_vm("KG-W")
        ctx = vm.mutator(seed=3)
        root = ctx.alloc(num_refs=1)
        ctx.add_root(root)
        for _ in range(3000):
            ctx.alloc(scalar_bytes=64)
        spans = traced.spans("gc.minor")
        assert spans, "allocation churn should trigger minor collections"
        assert spans[0]["attrs"]["collector"] == "KG-W"
        assert spans[0]["attrs"]["pause_cycles"] > 0
        assert spans[0]["dur"] >= 0

    def test_full_collection_emits_span(self, traced):
        vm = build_test_vm("KG-N")
        vm.full_collect()
        (span,) = traced.spans("gc.full")
        assert span["attrs"]["collector"] == "KG-N"

    def test_disabled_tracer_records_nothing(self):
        TRACER.clear()
        assert not TRACER.enabled
        vm = build_test_vm("KG-N")
        vm.full_collect()
        assert len(TRACER.spans("gc.")) == 0
