"""Batch experiment runner: caching, fan-out, and crash tolerance.

Several of the paper's figures share underlying measurements (e.g. the
PCM-Only single-instance runs appear in Figures 4, 5, and 6 and in
Table III).  :class:`ExperimentRunner` memoises
:class:`~repro.core.platform.MeasurementResult` objects by run key so a
full reproduction pass never repeats a configuration.
:meth:`ExperimentRunner.run` is a one-key serial sweep, so the cache,
the ``runner.*`` metrics, the ``runner.run`` span and the narration
live in one place: :meth:`ExperimentRunner.sweep`.

Independent configurations are embarrassingly parallel — each platform
run builds its own machine, kernel, and runtime — so
:meth:`ExperimentRunner.sweep` fans a list of run keys across a process
pool and assembles the results in input order.  A worker returns only
its :class:`~repro.core.platform.MeasurementResult`, which holds every
simulated counter; host events (``runner.*``, ``faults.injected.*``,
...) stay in the registry of the process that records them.  The sweep
is crash-tolerant:

* every fresh key is submitted as its own future with a per-run
  ``timeout``, so one wedged worker cannot stall the whole pool;
* a run is a pure function of its key, so an exception raised by the
  run itself is recorded as a :class:`FailureRecord` on its first
  attempt, on the pool and serial paths alike;
* only infrastructure failures are retried, at once: a worker crash
  (``BrokenProcessPool``) or a hang (timeout) charges the affected keys
  an attempt, the pool is rebuilt, and the surviving futures' results
  are kept — completed work is never discarded;
* a key that loses :data:`POOL_ATTEMPTS` attempts that way gets one
  in-process ``serial-fallback`` attempt before being recorded as a
  failure, and a pool that cannot start degrades the sweep to serial;
* the :class:`SweepReport` accounts for every input key exactly once —
  a :class:`RunOutcome` holding either the result or a
  :class:`FailureRecord` — instead of raising away completed siblings;
  :meth:`SweepReport.raise_first_failure` is the strict mode;
* with ``checkpoint=``, each completion's result is appended to a
  JSONL file and ``resume=True`` replays finished keys without
  re-executing them, bit-identically.
"""

from __future__ import annotations

import signal
from dataclasses import asdict, dataclass, field, replace
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
    """Identity of one measured configuration (with the defaults of
    :meth:`ExperimentRunner.run`, so a key reads like its call)."""

    benchmark: str
    collector: str
    instances: int = 1
    dataset: str = "default"
    mode: EmulationMode = EmulationMode.EMULATION
    llc_size: int = 0
    scale: int = DEFAULT_SCALE_CONFIG.scale
    #: Kernel placement policy (see :mod:`repro.kernel.placement`).
    placement: str = "static"
    #: Track per-line PCM wear (Start-Gap efficiency, imbalance); the
    #: tracker only listens, so every counter is unchanged.
    track_wear: bool = False

    def __post_init__(self) -> None:
        # An LLC override equal to the scale's own LLC builds the
        # default machine, so it is the default key: one run, not two.
        if self.llc_size == ScaleConfig(scale=self.scale).llc_size:
            object.__setattr__(self, "llc_size", 0)

    def to_dict(self) -> Dict:
        """JSON form: a sweep checkpoint's and a sweep report's ``key``."""
        return {**asdict(self), "mode": self.mode.value}

    @classmethod
    def from_dict(cls, data: Dict) -> "RunKey":
        """Inverse of :meth:`to_dict`; a record written before the
        placement or wear tracking joined the key loads as ``static``,
        untracked."""
        return cls(**{**data, "mode": EmulationMode(data["mode"])})


#: Pool attempts a key may lose to worker crashes and timeouts before
#: its one in-process ``serial-fallback`` attempt.
POOL_ATTEMPTS = 3


@dataclass
class FailureRecord:
    """Why a run key failed."""

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
    failure: Optional[FailureRecord] = None
    attempts: int = 1


def _worker_init() -> None:
    """Reset inherited signal state in a fresh pool worker.

    Under the default fork start method a worker inherits the parent's
    signal dispositions, and any signal wakeup fd the parent installed
    (an event loop's is a socketpair *shared* with the parent).  If the
    executor later SIGTERMs this worker (e.g. while tearing down a
    broken pool), an inherited handler would run the parent's shutdown
    logic in the worker, or report the signal to the parent as its own.
    Clearing the wakeup fd and restoring default dispositions keeps a
    worker's death a worker-local event.
    """
    signal.set_wakeup_fd(-1)
    for signum in (signal.SIGTERM, signal.SIGINT):
        signal.signal(signum, signal.SIG_DFL)


def _execute(key: RunKey, profile: bool) -> MeasurementResult:
    """Build a platform and run ``key``'s configuration, uncached.

    The one execution path for in-process runs, pool workers and the
    CLI's single-run verbs; ``profile`` enables the attribution
    profiler for this run only.
    """
    from repro.workloads.registry import benchmark_factory

    scale = ScaleConfig(scale=key.scale)
    platform = HybridMemoryPlatform(mode=key.mode, scale=scale,
                                    llc_size_override=key.llc_size,
                                    track_wear=key.track_wear,
                                    placement=key.placement)
    factory = benchmark_factory(key.benchmark)

    def make_app(index: int, scale=scale):
        return factory(index, dataset=key.dataset, scale=scale)

    if profile:
        PROFILER.enable()
    try:
        return platform.run(make_app, collector=key.collector,
                            instances=key.instances)
    finally:
        if profile:
            PROFILER.disable()


def _worker_run(task: Tuple[RunKey, int, bool]) -> MeasurementResult:
    """Execute one ``(key, attempt, profile)`` task in a pool worker.

    Module-level so it pickles under the default (fork or spawn) start
    method.  ``attempt`` is for the env-keyed fault shim (crash or hang
    on the Nth attempt).
    """
    from repro.faults.worker import maybe_fault

    key, attempt, profile = task
    maybe_fault(key, attempt)
    return _execute(key, profile)


class ExperimentRunner:
    """Runs and caches platform measurements.

    A result is the run's whole record: every simulated counter rides
    on it, so a sweep merges no worker registries and a resumed sweep
    needs only the checkpointed results.  The ``runner.*`` counters go
    to this process's :data:`~repro.observability.metrics.METRICS`.

    Parameters
    ----------
    verbose:
        Narrate one line per fresh (non-cached) run through the
        ``repro`` logger (see :mod:`repro.observability.log`).
    profile:
        Enable the attribution profiler for every fresh run this
        runner performs (in-process and pool workers alike);
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
        """Measure one configuration (cached); a failed run raises."""
        report = self.sweep([RunKey(benchmark, collector, instances,
                                    dataset, mode, llc_size, scale.scale,
                                    placement)], max_workers=1)
        report.raise_first_failure()
        return report.results[0]

    # ------------------------------------------------------------------
    # Execution plumbing
    # ------------------------------------------------------------------
    @staticmethod
    def _failed(key: RunKey, attempts: int, worker: str,
                exc: BaseException) -> _Exec:
        """Record ``key``'s failure; no further attempt follows."""
        if TRACER.enabled:
            TRACER.event("runner.giveup", benchmark=key.benchmark,
                         collector=key.collector, attempts=attempts,
                         error=type(exc).__name__)
        return _Exec(attempts=attempts, failure=FailureRecord(
            exception_type=type(exc).__name__, message=str(exc),
            attempts=attempts, worker=worker, exception=exc))

    def _serial_attempt(self, key: RunKey, attempts: int = 1,
                        worker: str = "serial") -> _Exec:
        """Run ``key`` once in-process; an exception is its failure.

        The only in-process execution, so it owns the ``runner.run``
        span.
        """
        trace_start = TRACER.begin() if TRACER.enabled else 0.0
        try:
            result = _execute(key, self.profile)
        except Exception as exc:  # noqa: BLE001 - recorded, reported
            return self._failed(key, attempts, worker, exc)
        if TRACER.enabled:
            TRACER.complete("runner.run", trace_start,
                            benchmark=key.benchmark, collector=key.collector,
                            instances=key.instances, dataset=key.dataset,
                            mode=key.mode.value,
                            pcm_write_lines=result.pcm_write_lines)
        return _Exec(result=result, attempts=attempts)

    def _pool_attempts(self, fresh: List[RunKey], max_workers: Optional[int],
                       timeout: Optional[float],
                       on_success: Callable[[RunKey, MeasurementResult],
                                            None]) -> Dict[RunKey, _Exec]:
        """Per-future pool execution with timeouts and pool rebuilds.
        Raises only for pool *creation* problems (the caller degrades
        to serial); everything after that is handled per key.
        ``on_success`` fires as completions land (checkpoint append),
        not in input order.
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
            try:
                futures[key] = pool.submit(
                    _worker_run, (key, attempts[key], self.profile))
            except BrokenProcessPool as exc:
                # A worker died while tasks were still being handed
                # out: this attempt is lost like the in-flight ones.
                futures[key] = cf.Future()
                futures[key].set_exception(exc)

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

        def lost(key: RunKey, exc: BaseException) -> None:
            """The pool lost ``key``'s attempt: the rebuilt pool retries
            it, or after POOL_ATTEMPTS it runs once in-process."""
            if attempts[key] < POOL_ATTEMPTS:
                METRICS.inc("runner.retries")
                if TRACER.enabled:
                    TRACER.event("runner.retry", benchmark=key.benchmark,
                                 collector=key.collector,
                                 attempt=attempts[key] + 1,
                                 error=type(exc).__name__)
            else:
                record = self._serial_attempt(key, attempts[key],
                                              "serial-fallback")
                if record.result is not None:
                    METRICS.inc("runner.pool_degraded")
                    on_success(key, record.result)
                done[key] = record
            rebuild()

        for key in fresh:
            submit(key)
        try:
            while len(done) < len(fresh):
                # Wait on unfinished keys in input order: all futures
                # run concurrently, so ordering only affects which key
                # a pool collapse is attributed to — deterministically.
                key = next(k for k in fresh if k not in done)
                try:
                    result = futures[key].result(timeout=timeout)
                except cf.TimeoutError:
                    METRICS.inc("runner.timeouts")
                    lost(key, TimeoutError(
                        f"run exceeded {timeout}s in a pool worker"))
                except BrokenProcessPool as exc:
                    lost(key, exc)
                except Exception as exc:  # noqa: BLE001 - the run raised
                    done[key] = self._failed(key, attempts[key], "pool",
                                             exc)
                else:
                    done[key] = _Exec(result=result, attempts=attempts[key])
                    on_success(key, result)
        finally:
            pool.shutdown(wait=False, cancel_futures=True)
        return done

    # ------------------------------------------------------------------
    # Sweeps
    # ------------------------------------------------------------------
    def sweep(self, keys: List[RunKey], max_workers: Optional[int] = None,
              timeout: Optional[float] = None,
              checkpoint: Optional[str] = None,
              resume: bool = False) -> SweepReport:
        """Measure many configurations; never discard completed work.

        Fresh keys fan out across a process pool (serial in-process
        when ``max_workers=1``, the pool cannot start, or there is at
        most one fresh key).  A run that raises is recorded on its
        first attempt; only a worker crash or a ``timeout`` is retried
        (see the module docstring).  Cached keys are answered from the
        memoisation cache; duplicates execute once.

        ``checkpoint`` names a JSONL file appended to after every
        completion; with ``resume=True`` keys already in it are
        replayed instead of re-executed.
        ``timeout`` applies to pool execution only — a serial run
        cannot be preempted.

        Returns a :class:`SweepReport` with one :class:`RunOutcome` per
        input key, in input order.  Raises :class:`ValueError` for a
        ``max_workers`` below 1 or a ``timeout`` that is not positive.
        """
        if max_workers is not None and max_workers < 1:
            raise ValueError(f"max_workers must be at least 1, "
                             f"got {max_workers}")
        if timeout is not None and timeout <= 0:
            raise ValueError(f"timeout must be positive, got {timeout}")
        order = list(keys)
        ckpt = None
        restored: Dict[RunKey, MeasurementResult] = {}
        if checkpoint:
            from repro.harness.checkpoint import SweepCheckpoint
            ckpt = SweepCheckpoint(checkpoint)
            if resume:
                restored = ckpt.load()
            else:
                ckpt.truncate()  # stale records must not resurrect later

        fresh = [key for key in dict.fromkeys(order)
                 if key not in self._cache and key not in restored]

        def on_success(key: RunKey, result: MeasurementResult) -> None:
            if ckpt is not None:
                ckpt.append(key, result)

        executed: Dict[RunKey, _Exec] = {}
        serial = max_workers == 1 or len(fresh) <= 1
        if fresh and not serial:
            try:
                executed = self._pool_attempts(fresh, max_workers, timeout,
                                               on_success)
            except (ImportError, OSError, PermissionError):
                executed = {}  # pool unavailable: serial fallback
                METRICS.inc("runner.pool_degraded")
        if fresh and not executed:
            for key in fresh:
                record = self._serial_attempt(key)
                if record.result is not None:
                    on_success(key, record.result)
                executed[key] = record

        # ---- assemble in input order.
        # Only this loop adds to the cache, and every key it adds is in
        # ``primary`` first, so a cache hit here was cached on entry.
        primary: Dict[RunKey, RunOutcome] = {}
        outcomes: List[RunOutcome] = []
        hits = 0
        for key in order:
            known = primary.get(key)
            if known is None and key in self._cache:
                known = RunOutcome(key=key, result=self._cache[key])
            if known is not None:
                hits += 1
                if TRACER.enabled:
                    TRACER.event("runner.cache_hit", benchmark=key.benchmark,
                                 collector=key.collector,
                                 instances=key.instances)
                outcomes.append(replace(known, cached=True))
                continue
            if key in restored:
                result = restored[key]
                METRICS.inc("runner.checkpoint.restored")
                self._cache[key] = result
                outcome = RunOutcome(key=key, result=result,
                                     from_checkpoint=True)
            else:
                record = executed[key]
                METRICS.inc("runner.cache.misses")
                if record.result is not None:
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
