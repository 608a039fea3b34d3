"""ServeApp behaviour: admission ladder, dispatch, breaker, recovery.

Everything here runs in-process against the stub runner (millisecond
jobs, real sweep/checkpoint machinery) so the service logic is
exercised without platform runs or subprocesses.
"""

import asyncio
import json

import pytest

from repro.faults import FAULTS, FaultPlan
from repro.observability.metrics import METRICS
from repro.serve.app import ServeApp, ServeConfig
from repro.serve.breaker import CLOSED, OPEN

from tests.serve.stub import ExplodingRunner, StubRunner

SPEC = {"benchmarks": ["fop"], "collectors": ["PCM-Only", "KG-N"],
        "instances": [1], "seed": 11}


@pytest.fixture(autouse=True)
def pristine():
    FAULTS.uninstall()
    METRICS.reset()
    yield
    FAULTS.uninstall()
    METRICS.reset()


def _config(tmp_path, **overrides):
    options = dict(port=0, store=str(tmp_path / "store"), max_workers=1,
                   job_retries=1)
    options.update(overrides)
    return ServeConfig(**options)


async def _wait_terminal(app, job_id, timeout=30.0):
    for _ in range(int(timeout / 0.01)):
        job = app.jobs[job_id]
        if job.state in ("done", "failed"):
            return job
        await asyncio.sleep(0.01)
    raise AssertionError(f"job {job_id} never reached a terminal state")


def _run(coro):
    return asyncio.run(coro)


class TestAdmissionLadder:
    def test_invalid_spec_is_400(self, tmp_path):
        app = ServeApp(_config(tmp_path), runner_factory=StubRunner)
        status, body, _ = app.admit({"collectors": ["NoSuch"]})
        assert status == 400
        assert "NoSuch" in body["error"]

    def test_queue_full_is_429_with_retry_after(self, tmp_path):
        # No dispatcher running: admissions stack up in the queue.
        app = ServeApp(_config(tmp_path, queue_limit=1),
                       runner_factory=StubRunner)
        status, _, _ = app.admit(SPEC)
        assert status == 202
        status, body, headers = app.admit(dict(SPEC, seed=12))
        assert status == 429
        assert headers["Retry-After"] == str(body["retry_after"])
        assert int(headers["Retry-After"]) >= 1
        assert METRICS.value("serve.rejected") == 1

    def test_draining_is_503(self, tmp_path):
        app = ServeApp(_config(tmp_path), runner_factory=StubRunner)
        app.request_drain()
        status, _, _ = app.admit(SPEC)
        assert status == 503

    def test_duplicate_digest_returns_existing_job(self, tmp_path):
        app = ServeApp(_config(tmp_path), runner_factory=StubRunner)
        status, first, _ = app.admit(SPEC)
        assert status == 202
        status, second, _ = app.admit(dict(SPEC))  # same identity
        assert status == 200
        assert second["id"] == first["id"]
        assert app.queue.depth == 1  # not enqueued twice

    def test_deadline_variant_still_hits_same_job(self, tmp_path):
        app = ServeApp(_config(tmp_path), runner_factory=StubRunner)
        _, first, _ = app.admit(SPEC)
        status, second, _ = app.admit(dict(SPEC, deadline=99))
        assert status == 200
        assert second["id"] == first["id"]


class TestDispatch:
    def test_job_runs_to_done_with_payload(self, tmp_path):
        async def scenario():
            app = ServeApp(_config(tmp_path), runner_factory=StubRunner)
            await app.start()
            status, body, _ = app.admit(SPEC)
            assert status == 202
            job = await _wait_terminal(app, body["id"])
            await app.stop()
            return job

        job = _run(scenario())
        assert job.state == "done"
        assert job.result["schema"] == "repro.serve_result/v1"
        assert len(job.result["results"]) == 2
        assert job.result["digest"] == job.digest
        assert METRICS.value("serve.jobs.completed") == 1

    def test_done_job_memoized_on_disk(self, tmp_path):
        async def scenario():
            app = ServeApp(_config(tmp_path), runner_factory=StubRunner)
            await app.start()
            _, body, _ = app.admit(SPEC)
            await _wait_terminal(app, body["id"])
            await app.stop()
            return app

        app = _run(scenario())
        digest = app.jobs["j000001"].digest
        assert app.store.load_result(digest) is not None
        # The finished job's checkpoint was promoted into the cache.
        import os
        assert not os.path.exists(app.store.checkpoint_path("j000001"))

    def test_experiment_failure_is_terminal_not_breaker(self, tmp_path):
        class FailingStub(StubRunner):
            fail_collectors = ("KG-N",)

        async def scenario():
            app = ServeApp(_config(tmp_path), runner_factory=FailingStub)
            await app.start()
            _, body, _ = app.admit(SPEC)
            job = await _wait_terminal(app, body["id"])
            await app.stop()
            return app, job

        app, job = _run(scenario())
        assert job.state == "failed"
        assert "stubbed failure" in job.error
        # A deterministic experiment failure is not pool collapse.
        assert app.breaker.state == CLOSED
        assert METRICS.value("serve.jobs.failed") == 1

    def test_failed_digest_can_be_resubmitted(self, tmp_path):
        class FailingStub(StubRunner):
            fail_collectors = ("KG-N",)

        async def scenario():
            app = ServeApp(_config(tmp_path), runner_factory=FailingStub)
            await app.start()
            _, body, _ = app.admit(SPEC)
            await _wait_terminal(app, body["id"])
            status, second, _ = app.admit(dict(SPEC))
            await _wait_terminal(app, second["id"])
            await app.stop()
            return status, second

        status, second = _run(scenario())
        assert status == 202  # not deduped onto the failed job
        assert second["id"] != "j000001"


class TestBreaker:
    def test_pool_collapse_trips_breaker(self, tmp_path):
        async def scenario():
            app = ServeApp(
                _config(tmp_path, breaker_threshold=1,
                        breaker_cooldown=30.0),
                runner_factory=ExplodingRunner)
            await app.start()
            _, body, _ = app.admit(SPEC)
            job = await _wait_terminal(app, body["id"])
            state = app.breaker.state
            await app.stop()
            return job, state

        job, state = _run(scenario())
        assert job.state == "failed"
        assert state == OPEN

    def test_open_breaker_parks_queued_jobs(self, tmp_path):
        async def scenario():
            app = ServeApp(
                _config(tmp_path, breaker_threshold=1,
                        breaker_cooldown=30.0),
                runner_factory=ExplodingRunner)
            await app.start()
            _, first, _ = app.admit(SPEC)
            await _wait_terminal(app, first["id"])
            _, second, _ = app.admit(dict(SPEC, seed=12))
            await asyncio.sleep(0.2)
            parked_state = app.jobs[second["id"]].state
            await app.stop()
            return parked_state

        assert _run(scenario()) == "queued"

    def test_half_open_probe_recovers(self, tmp_path):
        # Job 1 collapses the pool (breaker opens).  Job 2 waits out
        # the cooldown, runs as the half-open probe, succeeds, and the
        # breaker closes.
        calls = {"n": 0}

        def flaky_factory():
            calls["n"] += 1
            return ExplodingRunner() if calls["n"] == 1 else StubRunner()

        async def scenario():
            app = ServeApp(
                _config(tmp_path, breaker_threshold=1,
                        breaker_cooldown=0.05),
                runner_factory=flaky_factory)
            await app.start()
            _, first, _ = app.admit(SPEC)
            bad = await _wait_terminal(app, first["id"])
            opened = app.breaker.state
            _, second, _ = app.admit(dict(SPEC, seed=12))
            good = await _wait_terminal(app, second["id"])
            closed = app.breaker.state
            await app.stop()
            return bad, opened, good, closed

        bad, opened, good, closed = _run(scenario())
        assert bad.state == "failed"
        assert opened == OPEN
        assert good.state == "done"
        assert closed == CLOSED
        assert METRICS.value("serve.job_retries") >= 1


class TestDeadline:
    def test_deadline_fails_the_job(self, tmp_path):
        class SlowStub(StubRunner):
            def _execute(self, key):
                import time
                time.sleep(0.4)
                return super()._execute(key)

        async def scenario():
            app = ServeApp(_config(tmp_path), runner_factory=SlowStub)
            await app.start()
            _, body, _ = app.admit(dict(SPEC, deadline=0.05))
            job = await _wait_terminal(app, body["id"])
            await app.stop()
            return job

        job = _run(scenario())
        assert job.state == "failed"
        assert "deadline" in job.error


class TestResultWriteFault:
    def test_store_failure_keeps_job_done_and_checkpoint(self, tmp_path):
        import os

        async def scenario():
            app = ServeApp(_config(tmp_path), runner_factory=StubRunner)
            await app.start()
            plan = FaultPlan().add("serve.result_write", at=1)
            with FAULTS.installed(plan):
                _, body, _ = app.admit(SPEC)
                job = await _wait_terminal(app, body["id"])
            await app.stop()
            return app, job

        app, job = _run(scenario())
        assert job.state == "done"
        assert job.result is not None  # still served from memory
        assert METRICS.value("serve.result_write_errors") == 1
        # The checkpoint was NOT discarded: the data stays recoverable.
        assert os.path.exists(app.store.checkpoint_path(job.id))


class TestCrashRecovery:
    def test_queued_jobs_survive_restart(self, tmp_path):
        config = _config(tmp_path)
        # Session 1 accepts two jobs but is killed before dispatch
        # (no dispatcher was ever started).
        first = ServeApp(config, runner_factory=StubRunner)
        _, a, _ = first.admit(SPEC)
        _, b, _ = first.admit(dict(SPEC, seed=12))

        async def restart():
            app = ServeApp(_config(tmp_path), runner_factory=StubRunner)
            await app.start()
            jobs = [await _wait_terminal(app, a["id"]),
                    await _wait_terminal(app, b["id"])]
            await app.stop()
            return app, jobs

        app, jobs = _run(restart())
        assert [job.state for job in jobs] == ["done", "done"]
        assert all(job.recovered for job in jobs)
        assert app.jobs[a["id"]].result is not None

    def test_admission_record_stamps_placement_only(self, tmp_path):
        app = ServeApp(_config(tmp_path), runner_factory=StubRunner)
        _, body, _ = app.admit(SPEC)
        with open(app.store.journal_path, encoding="utf-8") as handle:
            records = [json.loads(line) for line in handle]
        queued = [r for r in records
                  if r["job"] == body["id"] and r["state"] == "queued"]
        assert len(queued) == 1
        assert queued[0]["placement"] == "static"
        assert "engine" not in queued[0]

    def test_journal_with_old_engine_stamp_recovers(self, tmp_path):
        # Journals written before the engine stamp was dropped carry
        # engine="perline"/"batched" on their queued records; replay
        # must neither read it nor trip over it.
        first = ServeApp(_config(tmp_path), runner_factory=StubRunner)
        _, a, _ = first.admit(SPEC)
        path = first.store.journal_path
        with open(path, encoding="utf-8") as handle:
            records = [json.loads(line) for line in handle]
        for record in records:
            if record["state"] == "queued":
                record["engine"] = "perline"
        with open(path, "w", encoding="utf-8") as handle:
            for record in records:
                handle.write(json.dumps(record, sort_keys=True) + "\n")

        async def restart():
            app = ServeApp(_config(tmp_path), runner_factory=StubRunner)
            await app.start()
            job = await _wait_terminal(app, a["id"])
            await app.stop()
            return job

        job = _run(restart())
        assert job.state == "done"
        assert job.recovered

    def test_running_job_requeues_on_restart(self, tmp_path):
        config = _config(tmp_path)
        first = ServeApp(config, runner_factory=StubRunner)
        _, a, _ = first.admit(SPEC)
        # Simulate a kill mid-dispatch: the journal says running.
        first.store.append_event(a["id"], "running")

        async def restart():
            app = ServeApp(_config(tmp_path), runner_factory=StubRunner)
            await app.start()
            job = await _wait_terminal(app, a["id"])
            await app.stop()
            return job

        job = _run(restart())
        assert job.state == "done"
        assert job.recovered

    def test_done_jobs_recover_as_views(self, tmp_path):
        async def session_one():
            app = ServeApp(_config(tmp_path), runner_factory=StubRunner)
            await app.start()
            _, body, _ = app.admit(SPEC)
            await _wait_terminal(app, body["id"])
            await app.stop()
            return body["id"]

        job_id = _run(session_one())
        second = ServeApp(_config(tmp_path), runner_factory=StubRunner)
        second._recover()
        job = second.jobs[job_id]
        assert job.state == "done"
        # The payload lazy-loads from the content-addressed cache.
        view = second._job_view(job_id)
        assert view["result"]["digest"] == job.digest

    def test_restart_memoizes_done_digest(self, tmp_path):
        async def session_one():
            app = ServeApp(_config(tmp_path), runner_factory=StubRunner)
            await app.start()
            _, body, _ = app.admit(SPEC)
            await _wait_terminal(app, body["id"])
            await app.stop()

        _run(session_one())
        second = ServeApp(_config(tmp_path), runner_factory=StubRunner)
        second._recover()
        status, body, _ = second.admit(dict(SPEC))
        assert status == 200
        assert METRICS.value("serve.memo_hits") >= 1


class TestDrain:
    def test_drain_finishes_inflight_then_stops(self, tmp_path):
        async def scenario():
            app = ServeApp(_config(tmp_path), runner_factory=StubRunner)
            await app.start()
            _, body, _ = app.admit(SPEC)
            app.request_drain()
            await asyncio.wait_for(app._finished.wait(), timeout=10)
            await app.stop()
            return app, body["id"]

        app, job_id = _run(scenario())
        # Either the dispatcher got to it before the drain flag, or it
        # stayed queued (journalled for the next start) — never lost.
        assert app.jobs[job_id].state in ("queued", "done")
