"""Crash-tolerant sweeps: retries, timeouts, degradation, checkpoints."""

import pytest

from repro.core.platform import EmulationMode
from repro.faults.worker import ENV_VAR
from repro.harness.checkpoint import SweepCheckpoint
from repro.harness.experiment import (
    ExperimentRunner,
    RetryPolicy,
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


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(base_delay=-1.0)

    def test_backoff_schedule(self):
        policy = RetryPolicy(max_attempts=4, base_delay=0.5, backoff=2.0)
        assert [policy.delay(n) for n in (1, 2, 3)] == [0.5, 1.0, 2.0]

    def test_default_has_no_delay(self):
        assert RetryPolicy().delay(1) == 0.0

    def test_negative_jitter_rejected(self):
        with pytest.raises(ValueError):
            RetryPolicy(jitter=-0.1)

    def test_default_jitter_keeps_old_schedule(self):
        # Existing sweep callers must stay byte-identical: jitter=0
        # ignores the salt entirely.
        plain = RetryPolicy(max_attempts=4, base_delay=0.5, backoff=2.0)
        assert [plain.delay(n, salt="anything") for n in (1, 2, 3)] \
            == [0.5, 1.0, 2.0]

    def test_jitter_is_deterministic_given_seed_salt_attempt(self):
        policy = RetryPolicy(base_delay=0.5, jitter=0.5, jitter_seed=7)
        again = RetryPolicy(base_delay=0.5, jitter=0.5, jitter_seed=7)
        assert policy.delay(1, salt="job-a") == again.delay(1, salt="job-a")
        assert policy.delay(2, salt="job-a") == again.delay(2, salt="job-a")

    def test_jitter_bounded_and_stretching(self):
        policy = RetryPolicy(base_delay=0.5, jitter=0.5, jitter_seed=7)
        delay = policy.delay(1, salt="job-a")
        assert 0.5 <= delay <= 0.75  # base .. base * (1 + jitter)

    def test_distinct_salts_decorrelate(self):
        # The thundering-herd property: concurrent retriers with
        # different salts must not share a schedule.
        policy = RetryPolicy(base_delay=0.5, jitter=0.5, jitter_seed=7)
        delays = {policy.delay(1, salt=f"job-{n}") for n in range(16)}
        assert len(delays) > 8

    def test_distinct_seeds_differ(self):
        one = RetryPolicy(base_delay=0.5, jitter=0.5, jitter_seed=1)
        two = RetryPolicy(base_delay=0.5, jitter=0.5, jitter_seed=2)
        assert one.delay(1, salt="job") != two.delay(1, salt="job")


class TestWorkerCrashRecovery:
    def test_one_crash_retries_and_siblings_survive(self, monkeypatch):
        """The acceptance sweep: >= 8 keys, one worker crash on the
        first attempt.  Every other key completes, the crashed key is
        retried per policy, and the report accounts for each input key
        exactly once, in input order."""
        monkeypatch.setenv(ENV_VAR, "crash:collector=KG-B,attempts=1")
        runner = ExperimentRunner()
        report = with_watchdog(lambda: runner.sweep(
            EIGHT, max_workers=4, retry=RetryPolicy(max_attempts=3)))
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
            EIGHT[:3], max_workers=2, retry=RetryPolicy(max_attempts=3)))
        assert _values(chaotic.results) == _values(serial.results)


class TestPersistentFailure:
    BAD = [_key("fop"), _key("no-such-benchmark"), _key("fop", "KG-N")]

    def test_failure_outcome_with_sibling_results(self):
        """A key that keeps failing (here: unknown benchmark, raised
        inside the worker) yields a failure RunOutcome while its
        siblings return results — the old pool.map path lost them."""
        runner = ExperimentRunner()
        report = with_watchdog(lambda: runner.sweep(
            self.BAD, max_workers=2, retry=RetryPolicy(max_attempts=2)))
        assert not report.ok
        assert [outcome.ok for outcome in report.outcomes] == [
            True, False, True]
        failure = report.outcomes[1].failure
        assert failure.exception_type == "KeyError"
        assert failure.attempts == 2
        assert "no-such-benchmark" in failure.message
        assert METRICS.value("runner.failures") == 1

    def test_run_many_raises_only_after_siblings_complete(self):
        runner = ExperimentRunner()
        with pytest.raises(KeyError, match="no-such-benchmark"):
            with_watchdog(lambda: runner.run_many(
                self.BAD, max_workers=2, retry=RetryPolicy(max_attempts=1)))
        # Both healthy keys finished and were cached before the raise.
        assert runner.executions == 2

    def test_serial_sweep_records_failures_too(self):
        runner = ExperimentRunner()
        report = runner.sweep(self.BAD, max_workers=1,
                              retry=RetryPolicy(max_attempts=2))
        assert [outcome.ok for outcome in report.outcomes] == [
            True, False, True]
        assert report.outcomes[1].failure.worker == "serial"

    def test_raise_first_failure_reraises_the_instance(self):
        report = ExperimentRunner().sweep(
            [_key("no-such-benchmark")], max_workers=1,
            retry=RetryPolicy(max_attempts=1))
        with pytest.raises(KeyError):
            report.raise_first_failure()


class TestHangRescue:
    def test_timeout_rescues_a_hung_worker(self, monkeypatch):
        monkeypatch.setenv(
            ENV_VAR, "hang:collector=KG-N,seconds=120,attempts=1")
        runner = ExperimentRunner()
        report = with_watchdog(lambda: runner.sweep(
            [_key("fop"), _key("fop", "KG-N"), _key("fop", "KG-W")],
            max_workers=2, retry=RetryPolicy(max_attempts=3), timeout=8.0))
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
            retry=RetryPolicy(max_attempts=1), checkpoint=path)
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
