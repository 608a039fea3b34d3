"""Serial-path chaos coverage for ``ExperimentRunner.sweep``.

The pool path has a chaos suite (``tests/faults/test_chaos.py``); this
file gives the *serial* paths the same treatment — explicit
``max_workers=1`` sweeps, single-fresh-key serial execution, and the
pool-creation-failure degradation — under in-process fault injection
and the (pool-only) timeout knob.  A run is a pure function of its key,
so an in-process fault is recorded on the first attempt, never retried.
"""

import pytest

from repro.core.platform import EmulationMode
from repro.faults import FAULTS, FaultPlan
from repro.harness.experiment import ExperimentRunner, RunKey, SweepReport
from repro.observability.metrics import METRICS


def _key(benchmark="fop", collector="PCM-Only", instances=1):
    return RunKey(benchmark, collector, instances, "default",
                  EmulationMode.EMULATION)


THREE = [_key("fop", c) for c in ("PCM-Only", "KG-N", "KG-W")]


def _values(results):
    """Deterministic fields only (host_seconds is wall-clock noise)."""
    return [(r.pcm_write_lines, r.dram_write_lines, r.qpi_crossings,
             r.per_tag_pcm_writes, r.elapsed_seconds) for r in results]


@pytest.fixture(autouse=True)
def pristine():
    FAULTS.uninstall()
    METRICS.reset()
    yield
    FAULTS.uninstall()
    METRICS.reset()


class TestSerialUnderFaults:
    def test_in_process_fault_is_recorded_on_attempt_one(self):
        # A one-shot GC-safepoint crash on the first arrival: the key
        # fails on its only attempt even though a rerun would pass.
        plan = FaultPlan().add("runtime.gc", at=1, times=1)
        runner = ExperimentRunner()
        with FAULTS.installed(plan):
            report = runner.sweep([_key()], max_workers=1)
            failure = report.outcomes[0].failure
            assert failure is not None
            assert failure.exception_type == "FaultError"
            assert failure.attempts == 1
            assert METRICS.value("runner.retries") == 0
            # Failed keys are not cached: the next sweep runs it again.
            assert runner.sweep([_key()], max_workers=1).ok
        assert runner.executions == 1

    def test_persistent_fault_yields_serial_failure_record(self):
        plan = FaultPlan().add("runtime.gc", at=1, times=-1)
        runner = ExperimentRunner()
        with FAULTS.installed(plan):
            report = runner.sweep([_key()], max_workers=1)
        assert not report.ok
        failure = report.outcomes[0].failure
        assert failure is not None
        assert failure.worker == "serial"
        assert failure.attempts == 1
        assert METRICS.value("runner.retries") == 0
        assert METRICS.value("runner.failures") == 1

    def test_faulted_sibling_does_not_poison_serial_sweep(self):
        # A one-shot fault lands in key 1's first GC round; keys 2..3
        # must still complete first-try.
        plan = FaultPlan().add("runtime.gc", at=1, times=1)
        runner = ExperimentRunner()
        with FAULTS.installed(plan):
            report = runner.sweep(THREE, max_workers=1)
        assert [o.key for o in report.outcomes] == THREE
        assert [o.ok for o in report.outcomes] == [False, True, True]
        assert [o.attempts for o in report.outcomes] == [1, 1, 1]
        assert runner.executions == 2

    def test_serial_results_match_unfaulted_reference(self):
        # The sweep after a faulted one is unpoisoned: bit-identical to
        # a run that never saw a fault.
        plan = FaultPlan().add("runtime.gc", at=1, times=1)
        faulted = ExperimentRunner()
        with FAULTS.installed(plan):
            assert not faulted.sweep([_key()], max_workers=1).ok
            report = faulted.sweep([_key()], max_workers=1)
        reference = ExperimentRunner().sweep([_key()], max_workers=1)
        assert _values([report.outcomes[0].result]) \
            == _values([reference.outcomes[0].result])


class TestSerialTimeoutSemantics:
    def test_timeout_is_ignored_on_the_serial_path(self):
        # The per-run timeout is a pool-mode rescue (a future that
        # never completes); in-process there is nothing to interrupt,
        # so even an absurdly small budget must not fail the run.
        runner = ExperimentRunner()
        report = runner.sweep([_key()], max_workers=1, timeout=1e-9)
        assert report.ok
        assert report.outcomes[0].failure is None

    def test_timeout_with_faults_still_serial_safe(self):
        # A faulted serial run reports its own exception, not a
        # timeout, and is not retried.
        plan = FaultPlan().add("runtime.gc", at=1, times=1)
        runner = ExperimentRunner()
        with FAULTS.installed(plan):
            report = runner.sweep([_key()], max_workers=1, timeout=1e-9)
        failure = report.outcomes[0].failure
        assert failure.exception_type == "FaultError"
        assert failure.attempts == 1
        assert METRICS.value("runner.timeouts") == 0


class TestPoolCollapseDegradation:
    def test_pool_creation_failure_degrades_to_serial(self, monkeypatch):
        def explode(*args, **kwargs):
            raise OSError("no more processes")

        runner = ExperimentRunner()
        monkeypatch.setattr(runner, "_pool_attempts", explode)
        report = runner.sweep(THREE, max_workers=4)
        assert isinstance(report, SweepReport)
        assert report.ok
        assert [o.key for o in report.outcomes] == THREE
        assert METRICS.value("runner.pool_degraded") >= 1

    def test_degraded_serial_run_still_honours_faults(self, monkeypatch):
        def explode(*args, **kwargs):
            raise OSError("no more processes")

        runner = ExperimentRunner()
        monkeypatch.setattr(runner, "_pool_attempts", explode)
        plan = FaultPlan().add("runtime.gc", at=1, times=-1)
        with FAULTS.installed(plan):
            report = runner.sweep([_key()], max_workers=4)
        assert not report.ok
        failure = report.outcomes[0].failure
        assert (failure.worker, failure.attempts) == ("serial", 1)
        assert METRICS.value("runner.retries") == 0

    def test_degraded_results_match_pool_reference(self, monkeypatch):
        degraded = ExperimentRunner()
        monkeypatch.setattr(
            degraded, "_pool_attempts",
            lambda *a, **k: (_ for _ in ()).throw(OSError("boom")))
        report = degraded.sweep(THREE, max_workers=4)
        reference = ExperimentRunner().sweep(THREE, max_workers=1)
        assert _values([o.result for o in report.outcomes]) \
            == _values([o.result for o in reference.outcomes])
