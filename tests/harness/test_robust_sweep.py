"""Crash-tolerant sweeps: infrastructure retries, timeouts, degradation,
checkpoints."""

import pytest

from repro.core.platform import EmulationMode
from repro.faults import FAULTS, FaultPlan
from repro.faults.worker import ENV_VAR
from repro.harness.checkpoint import SweepCheckpoint
from repro.harness.experiment import (
    POOL_ATTEMPTS,
    ExperimentRunner,
    RunKey,
    SweepReport,
)
from repro.observability.metrics import METRICS

from tests.pool_watchdog import with_watchdog


def _key(benchmark="fop", collector="PCM-Only", instances=1):
    return RunKey(benchmark, collector, instances, "default",
                  EmulationMode.EMULATION)


#: Eight distinct configurations (the acceptance-criteria sweep size).
EIGHT = [_key("fop", collector) for collector in (
    "PCM-Only", "KG-N", "KG-B", "KG-N+LOO", "KG-B+LOO", "KG-W",
    "KG-W-LOO", "KG-W-MDO")]


@pytest.fixture(autouse=True)
def clean_registry():
    METRICS.reset()
    yield
    METRICS.reset()


def _values(results):
    return [(r.pcm_write_lines, r.dram_write_lines, r.qpi_crossings,
             r.per_tag_pcm_writes, r.elapsed_seconds) for r in results]


def _comparable_metrics():
    """The registry minus wall-clock noise and harness bookkeeping.

    ``runner.*`` intentionally differs between a fresh and a resumed
    sweep (restored keys count as checkpoint restores, not executions);
    ``seconds`` histograms carry host timing noise.
    """
    return {name: summary for name, summary in METRICS.as_dict().items()
            if "seconds" not in name and not name.startswith("runner.")}


class TestWorkerCrashRecovery:
    def test_one_crash_retries_and_siblings_survive(self, monkeypatch):
        """The acceptance sweep: >= 8 keys, one worker crash on the
        first attempt.  Every other key completes, the crashed key is
        retried in the rebuilt pool, and the report accounts for each input key
        exactly once, in input order."""
        monkeypatch.setenv(ENV_VAR, "crash:collector=KG-B,attempts=1")
        runner = ExperimentRunner()
        report = with_watchdog(lambda: runner.sweep(EIGHT, max_workers=4))
        assert isinstance(report, SweepReport)
        assert [outcome.key for outcome in report.outcomes] == EIGHT
        assert report.ok
        crashed = next(o for o in report.outcomes
                       if o.key.collector == "KG-B")
        assert crashed.attempts >= 2
        assert runner.executions == len(EIGHT)
        assert METRICS.value("runner.retries") >= 1

    def test_crashed_results_match_a_serial_sweep(self, monkeypatch):
        serial = ExperimentRunner().sweep(EIGHT[:3], max_workers=1)
        METRICS.reset()
        monkeypatch.setenv(ENV_VAR, "crash:collector=KG-N,attempts=1")
        chaotic = with_watchdog(lambda: ExperimentRunner().sweep(
            EIGHT[:3], max_workers=2))
        assert _values(chaotic.results) == _values(serial.results)

    def test_pool_broken_during_submission_is_retried(self, monkeypatch):
        """A worker can die while later keys are still being submitted;
        ``submit`` then raises ``BrokenProcessPool`` and that key's
        attempt is lost like an in-flight one, not the whole sweep."""
        import concurrent.futures as cf
        from concurrent.futures.process import BrokenProcessPool

        real_submit = cf.ProcessPoolExecutor.submit
        calls = []

        def submit(pool, fn, *args, **kwargs):
            calls.append(fn)
            if len(calls) == 2:
                raise BrokenProcessPool("a worker died during submission")
            return real_submit(pool, fn, *args, **kwargs)

        monkeypatch.setattr(cf.ProcessPoolExecutor, "submit", submit)
        runner = ExperimentRunner()
        report = with_watchdog(lambda: runner.sweep(EIGHT[:3],
                                                    max_workers=2))
        assert report.ok
        assert report.outcomes[1].attempts == 2
        assert METRICS.value("runner.retries") >= 1

    def test_persistent_crash_falls_back_to_one_serial_attempt(
            self, monkeypatch):
        """A key whose worker dies on every pool attempt gets one
        in-process attempt, where the worker shim does not reach."""
        reference = ExperimentRunner().sweep([EIGHT[1]], max_workers=1)
        METRICS.reset()
        monkeypatch.setenv(ENV_VAR, "crash:collector=KG-N,attempts=-1")
        runner = ExperimentRunner()
        report = with_watchdog(lambda: runner.sweep(EIGHT[:3],
                                                    max_workers=2))
        assert report.ok
        doomed = report.outcomes[1]
        assert doomed.key.collector == "KG-N"
        assert doomed.attempts >= POOL_ATTEMPTS
        assert METRICS.value("runner.pool_degraded") >= 1
        assert _values([doomed.result]) == _values(reference.results)


class TestPersistentFailure:
    BAD = [_key("fop"), _key("no-such-benchmark"), _key("fop", "KG-N")]

    def test_failure_outcome_with_sibling_results(self):
        """A key that fails (here: unknown benchmark, raised inside the
        worker) yields a failure RunOutcome on its first attempt while
        its siblings return results — the old pool.map path lost them."""
        runner = ExperimentRunner()
        report = with_watchdog(lambda: runner.sweep(self.BAD,
                                                    max_workers=2))
        assert not report.ok
        assert [outcome.ok for outcome in report.outcomes] == [
            True, False, True]
        failure = report.outcomes[1].failure
        assert failure.exception_type == "KeyError"
        assert (failure.worker, failure.attempts) == ("pool", 1)
        assert "no-such-benchmark" in failure.message
        assert METRICS.value("runner.failures") == 1
        assert METRICS.value("runner.retries") == 0

    def test_in_process_fault_in_pool_worker_runs_once(self):
        """A fault armed in-process before the pool starts is inherited
        by the forked workers; the run raises there and is recorded on
        attempt 1, like any exception from the run itself."""
        plan = FaultPlan().add("runtime.gc", at=1, times=-1)
        runner = ExperimentRunner()
        with FAULTS.installed(plan):
            report = with_watchdog(lambda: runner.sweep(EIGHT[:2],
                                                        max_workers=2))
        assert [o.ok for o in report.outcomes] == [False, False]
        for outcome in report.outcomes:
            failure = outcome.failure
            assert failure.exception_type == "FaultError"
            assert (failure.worker, failure.attempts) == ("pool", 1)
        assert METRICS.value("runner.retries") == 0
        assert runner.executions == 0

    def test_raise_first_failure_only_after_siblings_complete(self):
        runner = ExperimentRunner()
        report = with_watchdog(lambda: runner.sweep(self.BAD,
                                                    max_workers=2))
        # Both healthy keys finished and were cached before the raise.
        assert runner.executions == 2
        with pytest.raises(KeyError, match="no-such-benchmark"):
            report.raise_first_failure()

    def test_serial_sweep_records_failures_too(self):
        runner = ExperimentRunner()
        report = runner.sweep(self.BAD, max_workers=1)
        assert [outcome.ok for outcome in report.outcomes] == [
            True, False, True]
        failure = report.outcomes[1].failure
        assert (failure.worker, failure.attempts) == ("serial", 1)
        assert METRICS.value("runner.retries") == 0

    def test_raise_first_failure_reraises_the_instance(self):
        report = ExperimentRunner().sweep(
            [_key("no-such-benchmark")], max_workers=1)
        with pytest.raises(KeyError):
            report.raise_first_failure()


class TestHangRescue:
    def test_timeout_rescues_a_hung_worker(self, monkeypatch):
        monkeypatch.setenv(
            ENV_VAR, "hang:collector=KG-N,seconds=120,attempts=1")
        runner = ExperimentRunner()
        report = with_watchdog(lambda: runner.sweep(
            [_key("fop"), _key("fop", "KG-N"), _key("fop", "KG-W")],
            max_workers=2, timeout=8.0))
        assert report.ok
        hung = next(o for o in report.outcomes
                    if o.key.collector == "KG-N")
        assert hung.attempts >= 2
        assert METRICS.value("runner.timeouts") >= 1


class TestSerialDegradation:
    def test_pool_failure_falls_back_to_serial(self, monkeypatch):
        def broken(self, *args, **kwargs):
            raise OSError("no process pool on this host")

        monkeypatch.setattr(ExperimentRunner, "_pool_attempts", broken)
        runner = ExperimentRunner()
        report = runner.sweep(EIGHT[:3], max_workers=2)
        assert report.ok
        assert runner.executions == 3
        assert METRICS.value("runner.pool_degraded") == 1

    def test_single_fresh_key_runs_serially(self):
        runner = ExperimentRunner()
        report = runner.sweep([_key("fop")], max_workers=4)
        assert report.ok
        assert runner.executions == 1


class TestSweepCaching:
    def test_duplicates_and_cached_keys(self):
        runner = ExperimentRunner()
        keys = [EIGHT[0], EIGHT[1], EIGHT[0]]
        report = with_watchdog(lambda: runner.sweep(keys, max_workers=2))
        assert report.ok
        assert report.outcomes[2].cached
        assert report.outcomes[0].result is report.outcomes[2].result
        assert runner.executions == 2
        assert runner.cache_hits == 1
        again = runner.sweep(keys, max_workers=2)
        assert runner.executions == 2
        assert all(outcome.cached for outcome in again.outcomes)


class TestSweepArguments:
    @pytest.mark.parametrize("kwargs", [
        {"max_workers": 0}, {"max_workers": -3},
        {"max_workers": 2, "timeout": 0.0},
        {"max_workers": 2, "timeout": -1.0},
    ])
    def test_unusable_values_rejected_before_any_run(self, kwargs,
                                                     tmp_path):
        path = tmp_path / "sweep.ckpt.jsonl"
        path.write_text("earlier records\n")
        runner = ExperimentRunner()
        with pytest.raises(ValueError):
            runner.sweep(EIGHT[:2], checkpoint=str(path), **kwargs)
        assert runner.executions == 0
        # The checkpoint was neither truncated nor appended to.
        assert path.read_text() == "earlier records\n"


class TestCheckpointResume:
    def test_resume_executes_only_remaining_keys(self, tmp_path):
        """Kill-after-K simulation: the first sweep checkpoints two keys
        then 'dies'; the resumed sweep executes only the other two and
        the merged results and metrics are bit-identical to one
        uninterrupted serial sweep."""
        keys = EIGHT[:4]
        path = str(tmp_path / "sweep.ckpt")

        reference = ExperimentRunner().sweep(keys, max_workers=1)
        reference_metrics = _comparable_metrics()
        METRICS.reset()

        # "Killed after K=2": only the first half ever runs.
        ExperimentRunner().sweep(keys[:2], max_workers=1, checkpoint=path)
        assert len(SweepCheckpoint(path).load()) == 2
        METRICS.reset()

        resumed = ExperimentRunner()
        report = resumed.sweep(keys, max_workers=1, checkpoint=path,
                               resume=True)
        assert report.ok
        assert resumed.executions == 2, "restored keys must not re-run"
        assert [o.from_checkpoint for o in report.outcomes] == [
            True, True, False, False]
        assert _values(report.results) == _values(reference.results)
        assert _comparable_metrics() == reference_metrics
        assert METRICS.value("runner.checkpoint.restored") == 2

    def test_parallel_resume_matches_serial_reference(self, tmp_path):
        keys = EIGHT[:4]
        path = str(tmp_path / "sweep.ckpt")
        reference = ExperimentRunner().sweep(keys, max_workers=1)
        reference_metrics = _comparable_metrics()
        METRICS.reset()

        with_watchdog(lambda: ExperimentRunner().sweep(
            keys[:2], max_workers=2, checkpoint=path))
        METRICS.reset()
        report = with_watchdog(lambda: ExperimentRunner().sweep(
            keys, max_workers=2, checkpoint=path, resume=True))
        assert _values(report.results) == _values(reference.results)
        assert _comparable_metrics() == reference_metrics

    def test_without_resume_the_checkpoint_is_truncated(self, tmp_path):
        path = str(tmp_path / "sweep.ckpt")
        ExperimentRunner().sweep(EIGHT[:2], max_workers=1, checkpoint=path)
        assert len(SweepCheckpoint(path).load()) == 2
        ExperimentRunner().sweep([EIGHT[2]], max_workers=1, checkpoint=path)
        restored = SweepCheckpoint(path).load()
        assert list(restored) == [EIGHT[2]]

    def test_failed_keys_are_not_checkpointed(self, tmp_path):
        path = str(tmp_path / "sweep.ckpt")
        report = ExperimentRunner().sweep(
            [_key("fop"), _key("no-such-benchmark")], max_workers=1,
            checkpoint=path)
        assert not report.ok
        assert list(SweepCheckpoint(path).load()) == [_key("fop")]


class TestWorkerSignalHygiene:
    def test_worker_init_clears_inherited_wakeup_fd(self):
        # A forked pool worker inherits the parent asyncio loop's
        # wakeup fd — a socketpair SHARED with the parent.  If the
        # executor SIGTERMs the worker, the inherited trampoline would
        # write into that socket and the parent would read the signal
        # as its own.  _worker_init must sever the link.
        import signal
        import socket

        from repro.harness.experiment import _worker_init

        left, right = socket.socketpair()
        try:
            left.setblocking(False)
            previous = signal.set_wakeup_fd(left.fileno())
            try:
                _worker_init()
                assert signal.set_wakeup_fd(-1) == -1  # already cleared
            finally:
                signal.set_wakeup_fd(previous)
        finally:
            left.close()
            right.close()

    def test_worker_init_restores_default_dispositions(self):
        import signal

        from repro.harness.experiment import _worker_init

        previous = signal.signal(signal.SIGTERM, signal.SIG_IGN)
        try:
            _worker_init()
            assert signal.getsignal(signal.SIGTERM) is signal.SIG_DFL
        finally:
            signal.signal(signal.SIGTERM, previous)
