"""The ``repro serve`` application: admission, dispatch, HTTP front end.

One asyncio event loop runs three cooperating pieces:

* an HTTP listener (stdlib ``asyncio.start_server``; requests are tiny
  JSON bodies, responses close the connection) that validates specs and
  admits jobs,
* a single sequential dispatcher that pops the admission queue, gates
  on the circuit breaker, and executes each job on a **fresh**
  :class:`ExperimentRunner` via :meth:`submit_async` (fresh because a
  deadline-expired sweep leaves a zombie thread behind — isolating each
  job in its own runner and checkpoint file means a zombie can only
  touch state nothing else reads),
* the :class:`JobStore` journal, which makes every state transition
  durable before it is visible, so a SIGKILL at any point leaves the
  service restartable with zero lost jobs.

Job lifecycle (see DESIGN.md "Service layer")::

    submit -> queued -> running -> done
                 ^         |
                 |         +-> failed
                 +-- restart recovery (journal + sweep checkpoint)

Why results stay bit-identical under faults: a job's runs land in a
per-job PR-3 sweep checkpoint as they complete; retries and restarts
resume from it, so each run key executes to completion exactly once;
the payload then merges per-run metric snapshots in input-key order.
Nothing about scheduling, crashes, or retry counts can reorder or
re-execute the arithmetic that produces the canonical payload.
"""

from __future__ import annotations

import asyncio
import json
import signal
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.faults.plan import FAULTS, FaultError
from repro.harness.checkpoint import SweepCheckpoint
from repro.harness.experiment import ExperimentRunner, RetryPolicy, SweepReport
from repro.observability.log import get_logger
from repro.observability.metrics import METRICS
from repro.observability.trace import TRACER
from repro.serve.breaker import CircuitBreaker
from repro.serve.jobstore import JobStore
from repro.serve.queue import AdmissionQueue
from repro.serve.wire import (
    HEALTH_SCHEMA,
    JOB_SCHEMA,
    JobSpec,
    SpecError,
    build_result_payload,
    expand_keys,
    parse_spec,
    spec_digest,
    spec_to_dict,
)

#: HTTP reason phrases for the statuses the service emits.
_REASONS = {200: "OK", 202: "Accepted", 400: "Bad Request",
            404: "Not Found", 405: "Method Not Allowed",
            429: "Too Many Requests", 500: "Internal Server Error",
            503: "Service Unavailable"}

#: Per-read timeout for request parsing (a stuck client must not be
#: able to wedge the listener).
_READ_TIMEOUT = 15.0


@dataclass
class ServeConfig:
    """Everything tunable about the service (CLI flags map 1:1)."""

    host: str = "127.0.0.1"
    port: int = 8950
    store: str = "serve-store"
    queue_limit: int = 64
    #: Worker pool width per job sweep (None = ProcessPool default).
    max_workers: Optional[int] = None
    #: Per-run retry schedule handed to the sweep.
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    #: Per-run timeout (seconds) inside the sweep pool.
    run_timeout: Optional[float] = None
    #: Per-job wall-clock budget when the spec names none.
    default_deadline: Optional[float] = None
    #: Whole-job dispatch attempts (deadline or pool-infra failures).
    job_retries: int = 2
    #: Service-level retry schedule between job attempts (jittered so
    #: retries against a rebuilt pool decorrelate).
    job_retry: RetryPolicy = field(default_factory=lambda: RetryPolicy(
        max_attempts=3, base_delay=0.05, jitter=0.25))
    breaker_threshold: int = 3
    breaker_cooldown: float = 5.0


@dataclass
class Job:
    """In-memory view of one accepted submission."""

    id: str
    spec: JobSpec
    digest: str
    state: str = "queued"  # queued | running | done | failed
    attempts: int = 0
    memoized: bool = False
    recovered: bool = False
    error: Optional[str] = None
    #: The result payload, once built (lazy-loaded from cache after a
    #: restart).
    result: Optional[Dict] = None

    def view(self, include_result: bool = False) -> Dict:
        """Machine-readable job state for the HTTP API."""
        body = {"schema": JOB_SCHEMA, "id": self.id, "state": self.state,
                "digest": self.digest, "attempts": self.attempts,
                "memoized": self.memoized, "recovered": self.recovered,
                "runs": self.spec.total_runs,
                "spec": spec_to_dict(self.spec)}
        if self.error is not None:
            body["error"] = self.error
        if include_result:
            body["result"] = self.result
        return body


class ServeApp:
    """Crash-tolerant, backpressured front end over the sweep harness.

    ``runner_factory`` builds the per-job runner; tests substitute a
    stub that fabricates results without touching the platform.
    ``clock`` must be monotonic (durations only — wall-clock time never
    enters the system; the determinism lint bans it).
    """

    def __init__(self, config: ServeConfig,
                 runner_factory: Optional[Callable[[], ExperimentRunner]]
                 = None,
                 clock: Callable[[], float] = time.monotonic) -> None:
        self.config = config
        self._runner_factory = runner_factory or ExperimentRunner
        self._clock = clock
        self.store = JobStore(config.store)
        self.queue = AdmissionQueue(config.queue_limit, clock=clock)
        self.breaker = CircuitBreaker(config.breaker_threshold,
                                      config.breaker_cooldown, clock=clock)
        self.jobs: Dict[str, Job] = {}
        self._by_digest: Dict[str, str] = {}
        self._job_counter = 0
        self.draining = False
        self.port: Optional[int] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._dispatcher: Optional[asyncio.Task] = None
        # asyncio primitives are created inside start() so the app can
        # be constructed off-loop (and on 3.9, where they bind eagerly).
        self._work: Optional[asyncio.Event] = None
        self._finished: Optional[asyncio.Event] = None

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------
    def _next_id(self) -> str:
        self._job_counter += 1
        return f"j{self._job_counter:06d}"

    def admit(self, payload: Dict) -> Tuple[int, Dict, Dict[str, str]]:
        """Admit one submission; returns (status, body, extra headers).

        The full backpressure/memoization ladder, in order: draining
        -> 503; invalid spec -> 400; digest already known (in flight or
        done) -> 200 pointing at the existing job; digest in the disk
        cache -> 200 with an instantly-done memoized job; queue full ->
        429 with Retry-After; otherwise -> 202, journalled before the
        response is sent.
        """
        if FAULTS.active is not None:  # fault hook: admission path
            FAULTS.arrive("serve.admit", queue_depth=self.queue.depth)
        if self.draining:
            return 503, {"error": "draining; not accepting jobs"}, {}
        try:
            spec = parse_spec(payload)
        except SpecError as exc:
            return 400, {"error": str(exc)}, {}
        digest = spec_digest(spec)
        if TRACER.enabled:
            TRACER.event("serve.admit", digest=digest,
                         queue_depth=self.queue.depth)
        known = self._by_digest.get(digest)
        if known is not None and self.jobs[known].state != "failed":
            job = self.jobs[known]
            if job.state == "done":
                METRICS.inc("serve.memo_hits")
            return 200, job.view(), {}
        cached = self.store.load_result(digest)
        if cached is not None:
            job = Job(self._next_id(), spec, digest, state="done",
                      memoized=True, result=cached)
            self.jobs[job.id] = job
            self._by_digest[digest] = job.id
            self.store.append_event(job.id, "done",
                                    spec=spec_to_dict(spec),
                                    digest=digest, memoized=True)
            METRICS.inc("serve.memo_hits")
            return 200, job.view(), {}
        if not self.queue.has_room():
            METRICS.inc("serve.rejected")
            return 429, {"error": "queue full",
                         "retry_after": self.queue.retry_after()}, \
                {"Retry-After": str(self.queue.retry_after())}
        job = Job(self._next_id(), spec, digest)
        self.jobs[job.id] = job
        self._by_digest[digest] = job.id
        from repro.kernel.placement import resolve_placement
        # Stamp the admission record with the placement the job will
        # run under, mirroring the sweep-checkpoint header: a restart
        # under a different $REPRO_PLACEMENT surfaces in the journal
        # instead of silently re-running differently.
        self.store.append_event(job.id, "queued",
                                spec=spec_to_dict(spec), digest=digest,
                                placement=resolve_placement(None))
        self.queue.offer(job)
        if self._work is not None:
            self._work.set()
        return 202, job.view(), {}

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    async def dispatch(self, job: Job) -> None:
        """Run one job to a terminal state (or back to the journal).

        Deadline and pool-infrastructure failures consume service-level
        attempts with jittered backoff; experiment-level failures (a
        run that genuinely errors after the sweep's own retries) are
        terminal immediately — retrying the whole job would not change
        a deterministic outcome.
        """
        job.state = "running"
        started = self._clock()
        self.store.append_event(job.id, "running")
        span = TRACER.push("serve.job", job=job.id) if TRACER.enabled \
            else None
        keys = expand_keys(job.spec)
        deadline = job.spec.deadline \
            if job.spec.deadline is not None \
            else self.config.default_deadline
        last_error: Optional[BaseException] = None
        try:
            for attempt in range(1, self.config.job_retries + 1):
                job.attempts = attempt
                try:
                    if FAULTS.active is not None:  # fault hook: dispatch
                        FAULTS.arrive("serve.dispatch", job=job.id,
                                      attempt=attempt)
                    runner = self._runner_factory()
                    sweep = runner.submit_async(
                        keys, max_workers=self.config.max_workers,
                        retry=self.config.retry,
                        timeout=self.config.run_timeout,
                        checkpoint=self.store.checkpoint_path(job.id),
                        resume=True)
                    if deadline is not None:
                        report = await asyncio.wait_for(sweep, deadline)
                    else:
                        report = await sweep
                except asyncio.TimeoutError:
                    last_error = TimeoutError(
                        f"job deadline ({deadline:.1f}s) exceeded")
                    self.breaker.record_failure()
                    break  # the budget is spent; retrying cannot fit
                except Exception as exc:  # noqa: BLE001 - infra failure
                    last_error = exc
                    self.breaker.record_failure()
                    METRICS.inc("serve.job_retries")
                    if attempt < self.config.job_retries:
                        delay = self.config.job_retry.delay(
                            attempt, salt=job.id)
                        if delay:
                            await asyncio.sleep(delay)
                    continue
                self._finish(job, report)
                return
            job.state = "failed"
            job.error = f"{type(last_error).__name__}: {last_error}"
            self.store.append_event(job.id, "failed", error=job.error)
            METRICS.inc("serve.jobs.failed")
        finally:
            duration = self._clock() - started
            self.queue.note_duration(duration)
            METRICS.observe("serve.job_seconds", duration)
            if span is not None:
                TRACER.pop(span, state=job.state)

    def _finish(self, job: Job, report: SweepReport) -> None:
        """Land a finished sweep: payload, cache, journal, breaker."""
        if report.ok:
            snapshots = SweepCheckpoint(
                self.store.checkpoint_path(job.id)).load()
            payload = build_result_payload(job.spec, job.digest, report,
                                           snapshots)
            job.result = payload
            try:
                self.store.store_result(job.digest, payload)
            except Exception:  # noqa: BLE001 - keep the job done
                # The payload still lives in memory and the checkpoint
                # stays on disk, so nothing is lost; a restart rebuilds
                # the payload from the checkpoint.
                METRICS.inc("serve.result_write_errors")
            else:
                self.store.discard_checkpoint(job.id)
            job.state = "done"
            self.store.append_event(job.id, "done")
            METRICS.inc("serve.jobs.completed")
            self.breaker.record_success()
            return
        failures = [outcome.failure for outcome in report.outcomes
                    if outcome.failure is not None]
        infra = any(record.worker in ("pool", "serial-fallback")
                    for record in failures)
        job.state = "failed"
        job.error = "; ".join(
            f"{record.exception_type}: {record.message}"
            for record in failures[:3]) or "sweep failed"
        self.store.append_event(job.id, "failed", error=job.error)
        METRICS.inc("serve.jobs.failed")
        if infra:
            # Pool-level collapse is what the breaker protects against.
            self.breaker.record_failure()
        else:
            self.breaker.record_success()

    async def _dispatch_loop(self) -> None:
        """Sequential dispatcher: one job at a time, breaker-gated."""
        assert self._work is not None and self._finished is not None
        try:
            while True:
                if self.draining:
                    break
                job = self.queue.pop()
                if job is None:
                    self._work.clear()
                    await self._work.wait()
                    continue
                if not self.breaker.allow():
                    self.queue.requeue_front(job)
                    await asyncio.sleep(
                        min(max(self.breaker.retry_in(), 0.02), 1.0))
                    continue
                try:
                    await self.dispatch(job)
                except asyncio.CancelledError:
                    raise
                except Exception as exc:  # noqa: BLE001 - job, not loop
                    # A dispatch bug (or an injected journal fault) must
                    # not take the dispatcher down with it.
                    job.state = "failed"
                    job.error = f"{type(exc).__name__}: {exc}"
                    try:
                        self.store.append_event(job.id, "failed",
                                                error=job.error)
                    except Exception:  # noqa: BLE001
                        pass
                    METRICS.inc("serve.jobs.failed")
        finally:
            self._finished.set()

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------
    def _recover(self) -> None:
        """Rebuild job state from the journal after a restart.

        Terminal jobs come back as views (results lazy-load from the
        cache); queued/running jobs re-queue — ``force`` bypasses the
        admission limit because these jobs were already accepted — and
        their sweep checkpoints make the redo incremental.
        """
        records = self.store.recover()
        recovered = 0
        for job_id, record in records.items():
            try:
                spec = parse_spec(record["spec"])
                digest = record["digest"]
                state = record["state"]
            except (SpecError, KeyError):
                METRICS.inc("serve.journal.skipped_records")
                continue
            job = Job(job_id, spec, digest, state=state,
                      memoized=bool(record.get("memoized", False)),
                      error=record.get("error"))
            if job_id.startswith("j"):
                try:
                    self._job_counter = max(self._job_counter,
                                            int(job_id[1:]))
                except ValueError:
                    pass
            self.jobs[job_id] = job
            if state != "failed":
                self._by_digest.setdefault(digest, job_id)
            if state in ("queued", "running"):
                job.state = "queued"
                job.recovered = True
                self.store.append_event(job_id, "queued", recovered=True)
                self.queue.offer(job, force=True)
                recovered += 1
        if recovered:
            METRICS.set("serve.recovered_jobs", float(recovered))
            get_logger().info("serve: recovered %d in-flight job(s) "
                              "from %s", recovered,
                              self.store.journal_path)

    # ------------------------------------------------------------------
    # HTTP front end
    # ------------------------------------------------------------------
    def health(self) -> Dict:
        counts = {"queued": 0, "running": 0, "done": 0, "failed": 0}
        for job in self.jobs.values():
            counts[job.state] = counts.get(job.state, 0) + 1
        return {"schema": HEALTH_SCHEMA,
                "status": "draining" if self.draining else "ok",
                "queue_depth": self.queue.depth,
                "breaker": self.breaker.state,
                "jobs": counts}

    def _job_view(self, job_id: str) -> Optional[Dict]:
        job = self.jobs.get(job_id)
        if job is None:
            return None
        if job.state == "done" and job.result is None:
            # Lazy-load after restart: the payload lives at the
            # digest's content address.
            job.result = self.store.load_result(job.digest)
        return job.view(include_result=True)

    async def _route(self, method: str, path: str,
                     body: bytes) -> Tuple[int, Dict, Dict[str, str]]:
        if path == "/healthz":
            if method != "GET":
                return 405, {"error": "method not allowed"}, {}
            return 200, self.health(), {}
        if path == "/jobs":
            if method == "GET":
                return 200, {"jobs": [job.view()
                                      for job in self.jobs.values()]}, {}
            if method == "POST":
                try:
                    payload = json.loads(body.decode("utf-8"))
                except (ValueError, UnicodeDecodeError):
                    return 400, {"error": "body must be JSON"}, {}
                try:
                    return self.admit(payload)
                except FaultError as exc:
                    # Injected admission fault: the job was NOT
                    # accepted (nothing journalled), so a 500 is
                    # honest — the client retries.
                    METRICS.inc("serve.admit_faults")
                    return 500, {"error": f"admission fault: {exc}"}, {}
            return 405, {"error": "method not allowed"}, {}
        if path.startswith("/jobs/") and method == "GET":
            view = self._job_view(path[len("/jobs/"):])
            if view is None:
                return 404, {"error": "no such job"}, {}
            return 200, view, {}
        return 404, {"error": "no such route"}, {}

    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        status, payload, extra = 500, {"error": "internal error"}, {}
        try:
            request = await asyncio.wait_for(reader.readline(),
                                             _READ_TIMEOUT)
            parts = request.decode("latin-1").split()
            if len(parts) < 2:
                raise ValueError("malformed request line")
            method, path = parts[0].upper(), parts[1]
            headers: Dict[str, str] = {}
            while True:
                line = await asyncio.wait_for(reader.readline(),
                                              _READ_TIMEOUT)
                if line in (b"\r\n", b"\n", b""):
                    break
                name, _, value = line.decode("latin-1").partition(":")
                headers[name.strip().lower()] = value.strip()
            length = int(headers.get("content-length", "0") or "0")
            body = b""
            if length:
                body = await asyncio.wait_for(reader.readexactly(length),
                                              _READ_TIMEOUT)
            status, payload, extra = await self._route(method, path, body)
        except (asyncio.TimeoutError, asyncio.IncompleteReadError,
                ConnectionError, ValueError) as exc:
            status, payload, extra = 400, {"error": str(exc)}, {}
        except Exception as exc:  # noqa: BLE001 - never kill the listener
            status, payload, extra = 500, {"error": str(exc)}, {}
        try:
            data = json.dumps(payload).encode("utf-8")
            head = [f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}",
                    "Content-Type: application/json",
                    f"Content-Length: {len(data)}",
                    "Connection: close"]
            head.extend(f"{name}: {value}"
                        for name, value in extra.items())
            writer.write(("\r\n".join(head) + "\r\n\r\n")
                         .encode("latin-1") + data)
            await writer.drain()
        except ConnectionError:
            pass
        finally:
            writer.close()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Recover the journal, bind the socket, start dispatching."""
        self._work = asyncio.Event()
        self._finished = asyncio.Event()
        self._recover()
        self._server = await asyncio.start_server(
            self._handle, self.config.host, self.config.port)
        self.port = self._server.sockets[0].getsockname()[1]
        self._dispatcher = asyncio.ensure_future(self._dispatch_loop())
        if self.queue.depth:
            self._work.set()

    def request_drain(self) -> None:
        """Stop admitting; let the in-flight job finish, then stop.

        Queued-but-unstarted jobs stay journalled as ``queued`` — a
        restart re-admits them — so drain never abandons accepted work.
        """
        self.draining = True
        if self._work is not None:
            self._work.set()

    async def stop(self) -> None:
        self.request_drain()
        if self._dispatcher is not None:
            if self._finished is not None:
                await self._finished.wait()
            self._dispatcher.cancel()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()

    async def serve_forever(self) -> None:
        """CLI entry: run until SIGTERM/SIGINT, then drain and exit."""
        await self.start()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(signum, self.request_drain)
            except (NotImplementedError, RuntimeError):
                pass  # platform without signal support
        print(f"repro serve: listening on "
              f"http://{self.config.host}:{self.port}", flush=True)
        assert self._finished is not None
        await self._finished.wait()
        await self.stop()
        print("repro serve: drained, exiting", flush=True)
