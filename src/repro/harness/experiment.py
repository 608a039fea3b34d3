"""Batch experiment runner: caching, fan-out, and crash tolerance.

Several of the paper's figures share underlying measurements (e.g. the
PCM-Only single-instance runs appear in Figures 4, 5, and 6 and in
Table III).  :class:`ExperimentRunner` memoises
:class:`~repro.core.platform.MeasurementResult` objects by run key so a
full reproduction pass never repeats a configuration.

Independent configurations are embarrassingly parallel — each platform
run builds its own machine, kernel, and runtime — so
:meth:`ExperimentRunner.sweep` fans a list of run keys across a process
pool and merges results (and worker-side metrics) deterministically in
input order.  The sweep is crash-tolerant:

* every fresh key is submitted as its own future with a per-run
  ``timeout``, so one wedged worker cannot stall the whole pool;
* failures retry under a :class:`RetryPolicy` (bounded attempts,
  jitter-free exponential backoff — determinism over thundering-herd
  avoidance, since workers are local);
* a worker crash (``BrokenProcessPool``), a hang (timeout), or an
  unpicklable payload charges the affected keys an attempt, the pool is
  rebuilt, and the surviving futures' results are kept — completed work
  is never discarded;
* a key that keeps failing at the pool level degrades to one in-process
  serial attempt before being recorded as a failure;
* the :class:`SweepReport` accounts for every input key exactly once —
  a :class:`RunOutcome` holding either the result or a
  :class:`FailureRecord` — instead of raising away completed siblings;
* with ``checkpoint=``, each completion is appended to a JSONL file
  (result plus the run's isolated metrics snapshot) and ``resume=True``
  replays finished keys without re-executing them, reproducing the
  merged metrics registry bit-identically.

:meth:`run_many` remains the strict façade: it runs a sweep and either
returns the plain result list or re-raises the first failure — but only
after every salvageable key has completed (and checkpointed, when
enabled).
"""

from __future__ import annotations

import hashlib
import signal
import time
import warnings
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.config import DEFAULT_SCALE_CONFIG, ScaleConfig
from repro.core.platform import (
    EmulationMode,
    HybridMemoryPlatform,
    MeasurementResult,
)
from repro.observability.log import narrate
from repro.observability.metrics import METRICS
from repro.observability.profile import PROFILER
from repro.observability.trace import TRACER


@dataclass(frozen=True)
class RunKey:
    """Identity of one measured configuration."""

    benchmark: str
    collector: str
    instances: int
    dataset: str
    mode: EmulationMode
    llc_size: int = 0
    scale: int = DEFAULT_SCALE_CONFIG.scale
    #: Kernel placement policy (see :mod:`repro.kernel.placement`).
    placement: str = "static"


def _jitter_fraction(seed: int, salt: str, attempt: int) -> float:
    """Deterministic [0, 1) jitter draw: same seed/salt/attempt, same
    value, on every interpreter and platform (SHA-256, not ``hash``)."""
    text = f"{seed}|{salt}|{attempt}"
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") / 2 ** 64


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded, deterministic retry schedule for sweep runs.

    ``base_delay * backoff ** (n - 1)`` seconds pass before retry
    ``n + 1``.  By default there is no jitter — sweep runs are local
    and reproducibility beats herd avoidance.  Service-level callers
    (``repro serve``) set ``jitter`` so many clients retrying against a
    freshly rebuilt pool do not arrive in lockstep: each delay is
    stretched by up to ``jitter`` (a fraction of itself), drawn
    *deterministically* from ``(jitter_seed, salt, attempt)`` via
    SHA-256 — the schedule is still bit-reproducible given the seed,
    but distinct salts (run keys, job ids) spread out.

    ``serial_fallback`` grants a key whose pool attempts were all lost
    to infrastructure failures (crashes, hangs) one final in-process
    attempt.
    """

    max_attempts: int = 3
    base_delay: float = 0.0
    backoff: float = 2.0
    serial_fallback: bool = True
    #: Maximum extra delay as a fraction of the base schedule
    #: (``0.0`` = the historical jitter-free behaviour).
    jitter: float = 0.0
    #: Seed for the deterministic jitter draw.
    jitter_seed: int = 0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        if self.base_delay < 0:
            raise ValueError("base_delay cannot be negative")
        if self.jitter < 0:
            raise ValueError("jitter cannot be negative")

    def delay(self, failed_attempts: int, salt: str = "") -> float:
        """Backoff before the next try after ``failed_attempts`` failures.

        ``salt`` distinguishes concurrent retriers (a run key, a job
        id) so jittered schedules decorrelate; it is ignored while
        ``jitter`` is 0, which keeps existing sweep callers byte-for-
        byte on the old schedule.
        """
        delay = self.base_delay * self.backoff ** max(0, failed_attempts - 1)
        if self.jitter and delay > 0:
            delay *= 1.0 + self.jitter * _jitter_fraction(
                self.jitter_seed, salt, failed_attempts)
        return delay


@dataclass
class FailureRecord:
    """Why a run key ultimately failed (after retries)."""

    exception_type: str
    message: str
    attempts: int
    worker: str  # "pool", "serial", or "serial-fallback"
    #: The final exception instance (not serialised; for re-raising).
    exception: Optional[BaseException] = field(default=None, repr=False)


@dataclass
class RunOutcome:
    """One input key's fate: a result or a failure record, never both."""

    key: RunKey
    result: Optional[MeasurementResult] = None
    failure: Optional[FailureRecord] = None
    attempts: int = 1
    #: Served from the memoisation cache (including duplicates).
    cached: bool = False
    #: Replayed from a sweep checkpoint instead of executing.
    from_checkpoint: bool = False

    @property
    def ok(self) -> bool:
        return self.result is not None


@dataclass
class SweepReport:
    """Every input key accounted for exactly once, in input order."""

    outcomes: List[RunOutcome]

    @property
    def ok(self) -> bool:
        return all(outcome.ok for outcome in self.outcomes)

    @property
    def results(self) -> List[Optional[MeasurementResult]]:
        """Per-key results in input order (``None`` for failures)."""
        return [outcome.result for outcome in self.outcomes]

    @property
    def failures(self) -> List[RunOutcome]:
        return [outcome for outcome in self.outcomes if not outcome.ok]

    @property
    def profiles(self) -> List[Optional[Dict]]:
        """Per-key profile artifacts in input order (``None`` when the
        key failed or the sweep ran without profiling)."""
        return [outcome.result.profile if outcome.result is not None
                else None for outcome in self.outcomes]

    def raise_first_failure(self) -> None:
        """Re-raise the first failed key's exception (strict mode)."""
        for outcome in self.outcomes:
            if outcome.ok:
                continue
            exc = outcome.failure.exception
            if exc is not None:
                raise exc
            raise RuntimeError(
                f"{outcome.key.benchmark}/{outcome.key.collector} failed: "
                f"{outcome.failure.exception_type}: "
                f"{outcome.failure.message}")


@dataclass
class _Exec:
    """Internal: one unique key's execution outcome before assembly."""

    result: Optional[MeasurementResult] = None
    snapshot: Optional[Dict] = None
    failure: Optional[FailureRecord] = None
    attempts: int = 1


def _worker_init() -> None:
    """Reset inherited signal state in a fresh pool worker.

    Under the default fork start method a worker inherits the parent's
    signal dispositions — including an asyncio loop's wakeup fd, which
    is a socketpair *shared* with the parent.  If the executor later
    SIGTERMs this worker (e.g. while tearing down a broken pool), the
    inherited C-level trampoline would write the signal number into
    that shared socket and the parent's loop would read it as a SIGTERM
    delivered to *itself* — ``repro serve`` would start draining
    because a chaos-killed sibling took the pool down.  Clearing the
    wakeup fd and restoring default dispositions keeps a worker's death
    a worker-local event.
    """
    signal.set_wakeup_fd(-1)
    for signum in (signal.SIGTERM, signal.SIGINT):
        signal.signal(signum, signal.SIG_DFL)


def _worker_run(payload: Tuple[str, str, int, str, str, int, int, int, bool,
                               str]
                ) -> Tuple[MeasurementResult, Dict[str, Dict[str, float]]]:
    """Execute one configuration in a pool worker process.

    Module-level so it pickles under the default (fork or spawn) start
    method.  The worker's global registry is reset first: pool workers
    are reused across tasks (and fork inherits the parent's counters),
    so without the reset a worker's snapshot would double-count earlier
    runs when merged.  The ``attempt`` element exists for the env-keyed
    fault shim (crash/hang-on-Nth-attempt testing); the trailing
    ``profile`` flag and ``placement`` name ride at the end so
    ``maybe_fault``'s ``payload[:7]`` key stays stable (workers are
    reused, so the profiler is always restored afterwards).
    """
    from repro.faults.worker import maybe_fault
    from repro.workloads.registry import benchmark_factory

    benchmark, collector, instances, dataset, mode_value, llc_size, \
        scale_int, attempt, profile, placement = payload
    maybe_fault(payload[:7], attempt)
    METRICS.reset()
    platform = HybridMemoryPlatform(mode=EmulationMode(mode_value),
                                    scale=ScaleConfig(scale=scale_int),
                                    llc_size_override=llc_size,
                                    placement=placement)
    factory = benchmark_factory(benchmark)
    scale = ScaleConfig(scale=scale_int)

    def make_app(index: int, scale=scale):
        return factory(index, dataset=dataset, scale=scale)

    if profile:
        PROFILER.enable()
    try:
        result = platform.run(make_app, collector=collector,
                              instances=instances)
    finally:
        if profile:
            PROFILER.disable()
    return result, METRICS.as_dict()


class ExperimentRunner:
    """Runs and caches platform measurements.

    Parameters
    ----------
    verbose:
        Narrate one line per fresh (non-cached) run through the
        ``repro`` logger (see :mod:`repro.observability.log`).
    profile:
        Enable the attribution profiler for every fresh run this
        runner performs (serial, isolated, and pool workers alike);
        results then carry a ``repro.profile/v1`` artifact in
        ``result.profile``.  A runner-level mode rather than a per-run
        flag so the memoisation cache stays internally consistent.
    """

    def __init__(self, verbose: bool = False, profile: bool = False) -> None:
        self._cache: Dict[RunKey, MeasurementResult] = {}
        self.verbose = verbose
        self.profile = profile
        #: Fresh (non-cached) platform runs this runner performed.
        self.executions = 0
        #: Runs answered from the memoisation cache.
        self.cache_hits = 0

    def run(self, benchmark: str, collector: str = "PCM-Only",
            instances: int = 1, dataset: str = "default",
            mode: EmulationMode = EmulationMode.EMULATION,
            llc_size: int = 0,
            scale: ScaleConfig = DEFAULT_SCALE_CONFIG,
            placement: str = "static") -> MeasurementResult:
        """Measure one configuration (cached)."""
        key = RunKey(benchmark, collector, instances, dataset, mode,
                     llc_size, scale.scale, placement)
        cached = self._cache.get(key)
        if cached is not None:
            self.cache_hits += 1
            METRICS.inc("runner.cache.hits")
            if TRACER.enabled:
                TRACER.event("runner.cache_hit", benchmark=benchmark,
                             collector=collector, instances=instances)
            return cached
        METRICS.inc("runner.cache.misses")
        trace_start = TRACER.begin() if TRACER.enabled else 0.0
        host_start = time.perf_counter()
        result = self._execute(key)
        host_seconds = time.perf_counter() - host_start
        self._cache[key] = result
        self.executions += 1
        METRICS.inc("runner.executions")
        METRICS.observe("runner.run_seconds", host_seconds)
        if TRACER.enabled:
            TRACER.complete("runner.run", trace_start, benchmark=benchmark,
                            collector=collector, instances=instances,
                            dataset=dataset, mode=mode.value,
                            pcm_write_lines=result.pcm_write_lines)
        if self.verbose:
            narrate("  %s", result.describe())
        return result

    # ------------------------------------------------------------------
    # Execution plumbing
    # ------------------------------------------------------------------
    def _execute(self, key: RunKey) -> MeasurementResult:
        """Build a platform and run ``key``'s configuration, uncached."""
        from repro.workloads.registry import benchmark_factory

        scale = ScaleConfig(scale=key.scale)
        platform = HybridMemoryPlatform(mode=key.mode, scale=scale,
                                        llc_size_override=key.llc_size,
                                        placement=key.placement)
        factory = benchmark_factory(key.benchmark)

        def make_app(index: int, scale=scale):
            return factory(index, dataset=key.dataset, scale=scale)

        if self.profile:
            PROFILER.enable()
        try:
            return platform.run(make_app, collector=key.collector,
                                instances=key.instances)
        finally:
            if self.profile:
                PROFILER.disable()

    def _run_isolated(self, key: RunKey
                      ) -> Tuple[MeasurementResult, Dict]:
        """Execute ``key`` in-process with a worker-style isolated
        metrics snapshot.

        The global registry is parked, the run records into an empty
        one, and the run's snapshot comes back exactly like a pool
        worker's — so serial and parallel sweeps merge identically.  A
        failing run's partial metrics are discarded, matching a crashed
        worker.
        """
        saved = METRICS.as_dict()
        METRICS.reset()
        try:
            result = self._execute(key)
            snapshot = METRICS.as_dict()
        finally:
            METRICS.reset()
            METRICS.merge(saved)
        return result, snapshot

    def _payload(self, key: RunKey, attempt: int):
        return (key.benchmark, key.collector, key.instances, key.dataset,
                key.mode.value, key.llc_size, key.scale, attempt,
                self.profile, key.placement)

    @staticmethod
    def _retry_salt(key: RunKey) -> str:
        """Stable per-key salt so jittered retries decorrelate."""
        return (f"{key.benchmark}/{key.collector}/{key.instances}/"
                f"{key.dataset}/{key.mode.value}/{key.llc_size}/"
                f"{key.scale}/{key.placement}")

    @staticmethod
    def _note_retry(key: RunKey, attempt: int, exc: BaseException) -> None:
        METRICS.inc("runner.retries")
        if TRACER.enabled:
            TRACER.event("runner.retry", benchmark=key.benchmark,
                         collector=key.collector, attempt=attempt,
                         error=type(exc).__name__)

    @staticmethod
    def _note_giveup(key: RunKey, attempts: int,
                     exc: BaseException) -> None:
        if TRACER.enabled:
            TRACER.event("runner.giveup", benchmark=key.benchmark,
                         collector=key.collector, attempts=attempts,
                         error=type(exc).__name__)

    def _serial_attempts(self, key: RunKey, retry: RetryPolicy) -> _Exec:
        """Run one key in-process with the retry schedule applied."""
        last_exc: Optional[BaseException] = None
        for attempt in range(1, retry.max_attempts + 1):
            if attempt > 1:
                self._note_retry(key, attempt, last_exc)
                delay = retry.delay(attempt - 1, salt=self._retry_salt(key))
                if delay:
                    time.sleep(delay)
            try:
                result, snapshot = self._run_isolated(key)
                return _Exec(result=result, snapshot=snapshot,
                             attempts=attempt)
            except Exception as exc:  # noqa: BLE001 - recorded, reported
                last_exc = exc
        self._note_giveup(key, retry.max_attempts, last_exc)
        return _Exec(attempts=retry.max_attempts, failure=FailureRecord(
            exception_type=type(last_exc).__name__, message=str(last_exc),
            attempts=retry.max_attempts, worker="serial",
            exception=last_exc))

    def _pool_attempts(self, fresh: List[RunKey], max_workers: Optional[int],
                       retry: RetryPolicy, timeout: Optional[float],
                       on_success: Callable[[RunKey, MeasurementResult, Dict],
                                            None]) -> Dict[RunKey, _Exec]:
        """Per-future pool execution with retries, timeouts, and pool
        rebuilds.  Raises only for pool *creation* problems (the caller
        degrades to serial); everything after that is handled per key.
        ``on_success`` fires as completions land (checkpoint append),
        not in input order — metric merging stays with the caller.
        """
        import concurrent.futures as cf
        from concurrent.futures.process import BrokenProcessPool

        pool = cf.ProcessPoolExecutor(max_workers=max_workers,
                                      initializer=_worker_init)
        attempts = {key: 0 for key in fresh}
        futures: Dict[RunKey, object] = {}
        done: Dict[RunKey, _Exec] = {}

        def submit(key: RunKey) -> None:
            attempts[key] += 1
            futures[key] = pool.submit(_worker_run,
                                       self._payload(key, attempts[key]))

        def rebuild() -> None:
            """Replace a broken/poisoned pool; resubmit unfinished keys.

            Every in-flight key's attempt died with the pool, so each
            resubmission counts as a fresh (charged) attempt — the
            crash's blast radius is honest attempt accounting for its
            neighbours, never lost results.
            """
            nonlocal pool
            try:
                pool.shutdown(wait=False, cancel_futures=True)
            finally:
                procs = dict(getattr(pool, "_processes", None) or {})
                for proc in procs.values():
                    try:
                        proc.kill()
                    except (OSError, AttributeError):
                        pass
            pool = cf.ProcessPoolExecutor(max_workers=max_workers,
                                          initializer=_worker_init)
            for key in fresh:
                if key not in done:
                    submit(key)

        def resolve_failure(key: RunKey, exc: BaseException,
                            pool_level: bool) -> bool:
            """Handle one failed attempt; returns True if the pool must
            be rebuilt (key retried there or siblings resubmitted)."""
            if attempts[key] < retry.max_attempts:
                self._note_retry(key, attempts[key] + 1, exc)
                delay = retry.delay(attempts[key],
                                    salt=self._retry_salt(key))
                if delay:
                    time.sleep(delay)
                if not pool_level:
                    submit(key)
                return pool_level
            # Retry budget exhausted.
            if pool_level and retry.serial_fallback:
                try:
                    result, snapshot = self._run_isolated(key)
                except Exception as serial_exc:  # noqa: BLE001
                    self._note_giveup(key, attempts[key], serial_exc)
                    done[key] = _Exec(attempts=attempts[key],
                                      failure=FailureRecord(
                        exception_type=type(serial_exc).__name__,
                        message=str(serial_exc), attempts=attempts[key],
                        worker="serial-fallback", exception=serial_exc))
                else:
                    METRICS.inc("runner.pool_degraded")
                    done[key] = _Exec(result=result, snapshot=snapshot,
                                      attempts=attempts[key])
                    on_success(key, result, snapshot)
            else:
                self._note_giveup(key, attempts[key], exc)
                done[key] = _Exec(attempts=attempts[key],
                                  failure=FailureRecord(
                    exception_type=type(exc).__name__, message=str(exc),
                    attempts=attempts[key], worker="pool", exception=exc))
            return pool_level

        for key in fresh:
            submit(key)
        try:
            while len(done) < len(fresh):
                # Wait on unfinished keys in input order: all futures
                # run concurrently, so ordering only affects which key
                # a pool collapse is attributed to — deterministically.
                key = next(k for k in fresh if k not in done)
                try:
                    result, snapshot = futures[key].result(timeout=timeout)
                except cf.TimeoutError:
                    METRICS.inc("runner.timeouts")
                    hung = TimeoutError(
                        f"run exceeded {timeout}s in a pool worker")
                    if resolve_failure(key, hung, pool_level=True):
                        rebuild()
                except BrokenProcessPool as exc:
                    if resolve_failure(key, exc, pool_level=True):
                        rebuild()
                except Exception as exc:  # noqa: BLE001 - worker raised
                    resolve_failure(key, exc, pool_level=False)
                else:
                    done[key] = _Exec(result=result, snapshot=snapshot,
                                      attempts=attempts[key])
                    on_success(key, result, snapshot)
        finally:
            pool.shutdown(wait=False, cancel_futures=True)
        return done

    # ------------------------------------------------------------------
    # Sweeps
    # ------------------------------------------------------------------
    def sweep(self, keys: List[RunKey], max_workers: Optional[int] = None,
              retry: Optional[RetryPolicy] = None,
              timeout: Optional[float] = None,
              checkpoint: Optional[str] = None,
              resume: bool = False) -> SweepReport:
        """Measure many configurations; never discard completed work.

        Fresh keys fan out across a process pool (serial in-process
        when ``max_workers=1``, the pool cannot start, or there is at
        most one fresh key) under ``retry``/``timeout``.  Worker-side
        metric snapshots merge in input order, so the registry ends up
        identical run-to-run regardless of pool scheduling.  Cached
        keys are answered from the memoisation cache; duplicates
        execute once.

        ``checkpoint`` names a JSONL file appended to after every
        completion; with ``resume=True`` keys already in it are
        replayed (result and metrics) instead of re-executed.
        ``timeout`` applies to pool execution only — a serial run
        cannot be preempted.

        Returns a :class:`SweepReport` with one :class:`RunOutcome` per
        input key, in input order.
        """
        retry = retry or RetryPolicy()
        order = list(keys)
        ckpt = None
        restored: Dict[RunKey, Tuple[MeasurementResult, Dict]] = {}
        if checkpoint:
            from repro.harness.checkpoint import SweepCheckpoint
            from repro.kernel.placement import resolve_placement
            # Stamp the checkpoint with the placement the runs will
            # actually execute under: a resume under a different
            # $REPRO_PLACEMENT would silently merge counters from two
            # incompatible configurations.
            ckpt = SweepCheckpoint(checkpoint,
                                   placement=resolve_placement(None))
            if resume:
                restored = ckpt.load()
            else:
                ckpt.truncate()  # stale records must not resurrect later

        entry_cached = set(self._cache)
        fresh: List[RunKey] = []
        replay: List[RunKey] = []
        seen = set()
        for key in order:
            if key in entry_cached or key in seen:
                continue
            seen.add(key)
            if key in restored:
                replay.append(key)
            else:
                fresh.append(key)

        def on_success(key: RunKey, result: MeasurementResult,
                       snapshot: Dict) -> None:
            if ckpt is not None:
                ckpt.append(key, result, snapshot)

        executed: Dict[RunKey, _Exec] = {}
        serial = max_workers == 1 or len(fresh) <= 1
        if fresh and not serial:
            try:
                executed = self._pool_attempts(fresh, max_workers, retry,
                                               timeout, on_success)
            except (ImportError, OSError, PermissionError):
                executed = {}  # pool unavailable: serial fallback
                METRICS.inc("runner.pool_degraded")
        if fresh and not executed:
            for key in fresh:
                record = self._serial_attempts(key, retry)
                if record.result is not None:
                    on_success(key, record.result, record.snapshot)
                executed[key] = record

        # ---- assemble in input order; merge metrics the same way
        primary: Dict[RunKey, RunOutcome] = {}
        outcomes: List[RunOutcome] = []
        hits = 0
        for key in order:
            known = primary.get(key)
            if known is not None:
                hits += 1
                outcomes.append(RunOutcome(
                    key=key, result=known.result, failure=known.failure,
                    attempts=known.attempts, cached=True,
                    from_checkpoint=known.from_checkpoint))
                continue
            if key in entry_cached:
                hits += 1
                outcome = RunOutcome(key=key, result=self._cache[key],
                                     cached=True)
            elif key in restored:
                result, snapshot = restored[key]
                METRICS.merge(snapshot)
                METRICS.inc("runner.checkpoint.restored")
                self._cache[key] = result
                outcome = RunOutcome(key=key, result=result,
                                     from_checkpoint=True)
            else:
                record = executed[key]
                if record.result is not None:
                    METRICS.merge(record.snapshot)
                    METRICS.inc("runner.cache.misses")
                    METRICS.inc("runner.executions")
                    METRICS.observe("runner.run_seconds",
                                    record.result.host_seconds)
                    self._cache[key] = record.result
                    self.executions += 1
                    if self.verbose:
                        narrate("  %s", record.result.describe())
                else:
                    METRICS.inc("runner.failures")
                outcome = RunOutcome(key=key, result=record.result,
                                     failure=record.failure,
                                     attempts=record.attempts)
            primary[key] = outcome
            outcomes.append(outcome)
        if hits:
            self.cache_hits += hits
            METRICS.inc("runner.cache.hits", hits)
        return SweepReport(outcomes=outcomes)

    async def submit_async(self, keys: List[RunKey],
                           max_workers: Optional[int] = None,
                           retry: Optional[RetryPolicy] = None,
                           timeout: Optional[float] = None,
                           checkpoint: Optional[str] = None,
                           resume: bool = False) -> SweepReport:
        """Awaitable :meth:`sweep` — the seam ``repro.serve`` runs on.

        The sweep executes on the event loop's default thread-pool
        executor so the service can keep admitting and answering HTTP
        requests while a job grinds through the process pool.  One
        sweep at a time per runner: the memoisation cache and the
        global metrics registry are not synchronised, so the service
        dispatches jobs sequentially (each on a fresh runner) and
        derives per-job metrics from the checkpoint's isolated
        snapshots rather than the global registry.
        """
        import asyncio
        from functools import partial

        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(None, partial(
            self.sweep, list(keys), max_workers=max_workers, retry=retry,
            timeout=timeout, checkpoint=checkpoint, resume=resume))

    def run_many(self, keys: List[RunKey],
                 max_workers: Optional[int] = None,
                 retry: Optional[RetryPolicy] = None,
                 timeout: Optional[float] = None,
                 checkpoint: Optional[str] = None,
                 resume: bool = False) -> List[MeasurementResult]:
        """Strict sweep: the result list, or the first failure re-raised.

        Unlike the old ``pool.map`` fan-out, a failing key no longer
        discards its siblings — every salvageable key completes, lands
        in the cache (and the checkpoint, when given), and *then* the
        first failure propagates.
        """
        report = self.sweep(keys, max_workers=max_workers, retry=retry,
                            timeout=timeout, checkpoint=checkpoint,
                            resume=resume)
        report.raise_first_failure()
        return [outcome.result for outcome in report.outcomes]

    def pcm_writes(self, benchmark: str, collector: str = "PCM-Only",
                   **kwargs) -> int:
        return self.run(benchmark, collector, **kwargs).pcm_write_lines

    def write_rate(self, benchmark: str, collector: str = "PCM-Only",
                   **kwargs) -> float:
        return self.run(benchmark, collector, **kwargs).pcm_write_rate_mbs

    def suite_average_writes(self, benchmarks: List[str],
                             **kwargs) -> float:
        from repro.harness.metrics import average
        return average([self.pcm_writes(b, **kwargs) for b in benchmarks])

    @property
    def runs_executed(self) -> int:
        """Deprecated alias for :attr:`executions`.

        Historically this returned the cache size, conflating "runs
        executed" with "configurations cached" (a cached hit is not an
        execution).  Use :attr:`executions` and :attr:`cache_hits`.
        """
        warnings.warn(
            "ExperimentRunner.runs_executed is deprecated; use "
            ".executions (fresh runs) or .cache_hits instead",
            DeprecationWarning, stacklevel=2)
        return self.executions


#: Module-level runner shared by the experiment scripts and benchmarks,
#: so a pytest session reproducing every figure reuses measurements.
SHARED_RUNNER = ExperimentRunner(verbose=False)
