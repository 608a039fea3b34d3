"""Span-stack hygiene under fault injection.

A fault raised mid-phase rips through several open spans (monitor
sample inside mutator inside run; GC phases inside a collection).  The
tracer must unwind to depth zero, the profiler must unhook its
boundary callback, and the next sweep after a recorded failure must
start from a clean stack — otherwise one injected fault poisons the attribution of every
later run in the process.
"""

import pytest

from repro.core.platform import EmulationMode, HybridMemoryPlatform
from repro.faults import FAULTS, FaultError, FaultPlan
from repro.harness.experiment import ExperimentRunner, RunKey
from repro.observability.metrics import METRICS
from repro.observability.profile import PROFILER
from repro.observability.trace import TRACER
from repro.workloads.base import BenchmarkApp
from tests.conftest import build_test_vm


@pytest.fixture(autouse=True)
def pristine():
    FAULTS.uninstall()
    METRICS.reset()
    TRACER.disable()
    TRACER.boundary = None
    TRACER.clear()
    PROFILER.disable()
    yield
    FAULTS.uninstall()
    METRICS.reset()
    TRACER.disable()
    TRACER.boundary = None
    TRACER.clear()
    PROFILER.disable()


class SmallApp(BenchmarkApp):
    """Enough allocation to run minor GCs and monitor samples."""

    def __init__(self, index):
        super().__init__("small", heap_budget=1024 * 1024,
                         nursery_size=64 * 1024, app_threads=2)

    def iteration(self, ctx):
        for step in range(256):
            obj = ctx.alloc(512, 2)
            ctx.write_scalar(obj, 0)
            if step % 16 == 0:
                yield
        yield


def run_traced(plan=None):
    platform = HybridMemoryPlatform(mode=EmulationMode.EMULATION)
    TRACER.clear()
    TRACER.enable()
    PROFILER.enable()
    try:
        if plan is not None:
            with FAULTS.installed(plan):
                return platform.run(lambda index: SmallApp(index),
                                    collector="KG-W", instances=1)
        return platform.run(lambda index: SmallApp(index),
                            collector="KG-W", instances=1)
    finally:
        PROFILER.disable()
        TRACER.disable()


class TestFaultMidSpan:
    def test_monitor_fault_unwinds_to_depth_zero(self):
        plan = FaultPlan().add("monitor.sample", at=2)
        with pytest.raises(FaultError):
            run_traced(plan)
        assert TRACER.depth() == 0
        assert TRACER.boundary is None
        assert PROFILER.active is False

    def test_gc_fault_closes_every_recorded_span(self):
        plan = FaultPlan().add("runtime.gc", at=2)
        with pytest.raises(FaultError):
            run_traced(plan)
        assert TRACER.depth() == 0
        # Every span that made it to the buffer closed with a duration.
        for span in TRACER.spans():
            assert "dur" in span and span["dur"] >= 0

    def test_next_run_is_unpoisoned(self):
        plan = FaultPlan().add("monitor.sample", at=2)
        with pytest.raises(FaultError):
            run_traced(plan)
        result = run_traced()
        assert result.profile is not None
        assert TRACER.depth() == 0
        # The clean run's root span parents nothing stale: had the
        # faulted run left frames open, "run" would have a parent.
        (run_span,) = TRACER.spans("run")
        assert "parent" not in run_span

    @pytest.mark.parametrize("collect, gc_span", [
        ("minor_collect", "gc.minor"), ("full_collect", "gc.full"),
    ])
    def test_fault_mid_promotion_closes_the_collection_span(
            self, collect, gc_span):
        """A heap-commit fault raised while survivors are promoted must
        close the promotion span *and* its collection span, with the
        collector's attributes.  A collection frame left open is never
        recorded, even when an outer pop later discards it."""
        vm = build_test_vm("KG-N")
        ctx = vm.mutator(seed=3)
        for _ in range(8):
            ctx.add_root(ctx.alloc(scalar_bytes=256))
        plan = FaultPlan().add("runtime.heap.commit")
        TRACER.enable()
        try:
            with FAULTS.installed(plan), pytest.raises(FaultError):
                getattr(vm, collect)()
        finally:
            TRACER.disable()
        assert TRACER.depth() == 0
        (collection,) = TRACER.spans(gc_span)
        (promote,) = TRACER.spans("gc.promote")
        assert promote["parent"] == collection["id"]
        assert collection["dur"] >= 0 and promote["dur"] >= 0
        assert collection["attrs"]["collector"] == "KG-N"

    def test_oom_mid_mutator_unwinds(self):
        from repro.runtime.heap import OutOfMemoryError
        plan = FaultPlan().add("runtime.alloc", at=100, error="oom")
        with pytest.raises(OutOfMemoryError):
            run_traced(plan)
        assert TRACER.depth() == 0
        assert PROFILER.active is False


class TestSweepFaults:
    KEY = RunKey("fop", "KG-W", 1, "default", EmulationMode.EMULATION)

    def test_faulted_attempt_leaves_next_sweep_profiling_cleanly(self):
        """The first sweep faults mid-span and is recorded on attempt 1;
        the next sweep of the same key must succeed with a profile and
        an empty span stack."""
        runner = ExperimentRunner(profile=True)
        plan = FaultPlan().add("monitor.sample", at=2, times=1)
        TRACER.enable()
        try:
            with FAULTS.installed(plan):
                failed = runner.sweep([self.KEY], max_workers=1)
                assert TRACER.depth() == 0
                assert PROFILER.active is False
                report = runner.sweep([self.KEY], max_workers=1)
        finally:
            TRACER.disable()
        assert failed.outcomes[0].failure.attempts == 1
        assert METRICS.value("runner.retries") == 0
        (outcome,) = report.outcomes
        assert outcome.failure is None
        assert outcome.attempts == 1
        assert outcome.result.profile is not None
        assert TRACER.depth() == 0
        assert PROFILER.active is False

    def test_recorded_failure_leaves_clean_state(self):
        runner = ExperimentRunner(profile=True)
        plan = FaultPlan().add("monitor.sample", at=2, times=-1)
        with FAULTS.installed(plan):
            report = runner.sweep([self.KEY], max_workers=1)
        (outcome,) = report.outcomes
        assert outcome.failure is not None
        assert outcome.failure.attempts == 1
        assert METRICS.value("runner.retries") == 0
        assert report.profiles == [None]
        assert TRACER.depth() == 0
        assert PROFILER.active is False
