"""The hybrid-memory emulation platform (Section III).

:class:`HybridMemoryPlatform` wires together the simulated NUMA
machine, the OS kernel, the managed runtime, and the write-rate
monitor, and drives workloads through the paper's measurement
methodology:

* **replay compilation** — each experiment runs two iterations of the
  workload; the first warms up (the VM "compiles"), counters reset at
  a barrier, and only the second, steady-state iteration is measured;
* **multiprogramming** — N instances run concurrently, interleaved by
  the scheduler at quantum granularity, so they genuinely contend for
  the shared LLC; all instances synchronise at the barrier and start
  the measured iteration together;
* **two measurement modes** — ``EMULATION`` mirrors the NUMA platform
  (monitor + kernel noise on Socket 0, scheduling jitter,
  hyper-threading); ``SIMULATION`` mirrors the Sniper setup the paper
  validates against (noise-free, deterministic, no hyper-threading).
"""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Optional

from repro.config import (
    DEFAULT_LATENCY,
    DEFAULT_SCALE_CONFIG,
    DEFAULT_SEEDS,
    LINE_SIZE,
    LatencyModel,
    ScaleConfig,
    SimulationSeeds,
)
from repro.core.collectors import collector_config, create_collector
from repro.core.monitor import WriteRateMonitor
from repro.kernel.scheduler import Scheduler
from repro.kernel.vm import Kernel
from repro.machine.topology import (
    DRAM_NODE,
    PCM_NODE,
    MachineSpec,
    emulation_platform_spec,
    sniper_simulation_spec,
)
from repro.observability.metrics import METRICS, sanitize
from repro.observability.profile import PROFILER, attributed_total
from repro.observability.trace import TRACER
from repro.runtime.jvm import JavaVM, RuntimeStats
from repro.sanitize.invariants import SANITIZE

if TYPE_CHECKING:  # pragma: no cover - typing-only, avoids layer cycles
    from repro.core.collectors.policy import CollectorConfig
    from repro.machine.wear import WearTracker
    from repro.native.runtime import NativeRuntime
    from repro.workloads.base import BenchmarkApp


class EmulationMode(enum.Enum):
    """Which measurement methodology the platform reproduces."""

    EMULATION = "emulation"
    SIMULATION = "simulation"


class PlatformTeardownError(RuntimeError):
    """One or more teardown steps failed after a successful measurement.

    Every teardown step still ran — the error aggregates what failed.
    (A hand-rolled aggregate because the CI floor is Python 3.10,
    pre-``ExceptionGroup``.)
    """

    def __init__(self, errors: List[BaseException]) -> None:
        detail = "; ".join(f"{type(e).__name__}: {e}" for e in errors)
        super().__init__(
            f"{len(errors)} teardown step(s) failed: {detail}")
        self.errors = errors


@dataclass
class MeasurementResult:
    """Everything measured during the second (steady-state) iteration."""

    benchmark: str
    collector: str
    mode: EmulationMode
    instances: int
    pcm_write_lines: int
    dram_write_lines: int
    elapsed_seconds: float
    per_tag_pcm_writes: Dict[str, int]
    per_tag_dram_writes: Dict[str, int]
    instance_stats: List[RuntimeStats]
    monitor_rates_mbs: List[float] = field(default_factory=list)
    #: Measured Start-Gap wear-levelling efficiency (None unless the
    #: platform was created with ``track_wear=True``).
    wear_efficiency: Optional[float] = None
    #: Max-to-mean PCM line wear before levelling (None when untracked).
    wear_imbalance: Optional[float] = None
    #: Per-node read/write line counts for the measured iteration
    #: (``pcm-memory``-style per-socket counters).
    node_counters: List[Dict[str, object]] = field(default_factory=list)
    #: Per-socket LLC counter deltas over the measured iteration.
    llc_stats: List[Dict[str, object]] = field(default_factory=list)
    #: Remote-socket demand misses during the measured iteration.
    qpi_crossings: int = 0
    #: Host wall-clock seconds the whole run() call took (both
    #: iterations), for harness-level profiling.
    host_seconds: float = 0.0
    #: Per-phase counter attribution (schema ``repro.profile/v1``);
    #: None unless :data:`repro.observability.profile.PROFILER` was
    #: enabled during the run.
    profile: Optional[Dict[str, object]] = None
    #: Placement policy the kernel ran under.
    placement: str = "static"
    #: OS page migrations during the measured iteration (``migrate``
    #: placement only; zero otherwise).
    pages_migrated: int = 0
    #: Copy lines those migrations charged (whole pages; see the
    #: sanitizer's migration_conservation law).
    migration_writes: int = 0
    #: Simulated cycles spent copying migrated pages.
    migration_cycles: int = 0
    #: Migration-copy lines that landed on each node during the
    #: measured iteration (subsets of the headline write counters).
    pcm_migration_write_lines: int = 0
    dram_migration_write_lines: int = 0

    @property
    def pcm_write_bytes(self) -> int:
        return self.pcm_write_lines * LINE_SIZE

    @property
    def dram_write_bytes(self) -> int:
        return self.dram_write_lines * LINE_SIZE

    @property
    def total_write_lines(self) -> int:
        return self.pcm_write_lines + self.dram_write_lines

    @property
    def pcm_write_rate_mbs(self) -> float:
        """PCM write rate in MB/s (the paper's headline metric)."""
        if self.elapsed_seconds <= 0:
            return 0.0
        return self.pcm_write_bytes / self.elapsed_seconds / 1e6

    @property
    def pcm_mutator_write_lines(self) -> int:
        """PCM write lines excluding OS page-migration copies."""
        return self.pcm_write_lines - self.pcm_migration_write_lines

    def describe(self) -> str:
        placement = ("" if self.placement == "static"
                     else f", {self.placement}")
        return (f"{self.benchmark} x{self.instances} [{self.collector}, "
                f"{self.mode.value}{placement}]: "
                f"PCM {self.pcm_write_lines} lines "
                f"({self.pcm_write_rate_mbs:.1f} MB/s), "
                f"DRAM {self.dram_write_lines} lines, "
                f"{self.elapsed_seconds * 1e3:.2f} ms")


def _counter_snapshot(machine, kernel: Kernel) -> Dict[str, int]:
    """Flat counter snapshot the profiler diffs at every span boundary.

    Names here define the counter vocabulary of the profile artifact:
    headline node counters, per-socket LLC/memory counters (``by
    socket`` view), and per-heap-tag write counters (``by space``
    view).  All monotonic between barrier resets.
    """
    pcm = machine.nodes[PCM_NODE]
    dram = machine.nodes[DRAM_NODE]
    snap: Dict[str, int] = {
        "pcm.writes": pcm.write_lines,
        "pcm.reads": pcm.read_lines,
        "dram.writes": dram.write_lines,
        "dram.reads": dram.read_lines,
        "qpi.crossings": machine.qpi_crossings,
        "page_faults": kernel.page_faults,
        "pages_mapped": kernel.pages_mapped,
        "pages_migrated": kernel.pages_migrated,
        "pcm.migration_writes": pcm.migration_write_lines,
        "dram.migration_writes": dram.migration_write_lines,
    }
    for socket in machine.sockets:
        stats = socket.llc.stats
        prefix = f"socket{socket.socket_id}"
        snap[f"{prefix}.llc.hits"] = stats.hits
        snap[f"{prefix}.llc.misses"] = stats.misses
        snap[f"{prefix}.llc.evictions"] = stats.evictions
        snap[f"{prefix}.llc.dirty_evictions"] = stats.dirty_evictions
        snap[f"{prefix}.mem.writes"] = socket.memory.write_lines
        snap[f"{prefix}.mem.reads"] = socket.memory.read_lines
    for tag, count in pcm.writes_by_tag.items():
        snap[f"pcm.writes.tag.{tag}"] = count
    for tag, count in dram.writes_by_tag.items():
        snap[f"dram.writes.tag.{tag}"] = count
    return snap


class HybridMemoryPlatform:
    """Run managed workloads on emulated hybrid DRAM-PCM memory.

    Parameters
    ----------
    mode:
        Emulation (NUMA platform, Section III) or simulation (Sniper
        stand-in, Section V).
    scale / latency / seeds:
        Simulation knobs; defaults reproduce the paper's setup.
    monitor_interval_rounds:
        Scheduler rounds between write-rate monitor samples.
    """

    def __init__(self, mode: EmulationMode = EmulationMode.EMULATION,
                 scale: ScaleConfig = DEFAULT_SCALE_CONFIG,
                 latency: LatencyModel = DEFAULT_LATENCY,
                 seeds: SimulationSeeds = DEFAULT_SEEDS,
                 monitor_interval_rounds: int = 8,
                 llc_size_override: int = 0,
                 track_wear: bool = False,
                 placement: str = "static") -> None:
        self.mode = mode
        self.scale = scale
        self.latency = latency
        self.seeds = seeds
        self.monitor_interval_rounds = monitor_interval_rounds
        self.llc_size_override = llc_size_override
        self.track_wear = track_wear
        #: Placement-policy name; see :mod:`repro.kernel.placement`.
        self.placement = placement

    def _machine_spec(self) -> MachineSpec:
        if self.mode is EmulationMode.EMULATION:
            spec = emulation_platform_spec(self.scale, self.latency)
            if self.llc_size_override:
                from dataclasses import replace
                spec = replace(spec, llc_size=self.llc_size_override)
            return spec
        return sniper_simulation_spec(self.scale, self.latency,
                                      llc_size=self.llc_size_override)

    def _build_managed(self, kernel: Kernel, app: "BenchmarkApp",
                       collector: str, config: "CollectorConfig",
                       index: int) -> JavaVM:
        """Create a JVM sized by the paper's conventions.

        ``app.heap_budget`` is the *total* heap (the paper's "twice the
        minimum"); the nursery and observer come out of it, so KG-B's
        3x nursery and KG-W's observer genuinely take virtual memory
        away from the mature/large spaces (the effect behind Figure 7's
        KG-B analysis).
        """
        nursery = app.nursery_size * config.nursery_factor
        observer = (config.observer_factor * nursery
                    if config.has_observer else 0)
        chunk = self.scale.chunk_size
        chunked_budget = max(app.heap_budget - nursery - observer, 4 * chunk)
        return JavaVM(
            kernel,
            create_collector(collector),
            heap_budget=chunked_budget,
            nursery_size=nursery,
            app_threads=app.app_threads,
            scale=self.scale,
            boot_noise_rate=0.004,
            seed=self.seeds.derive(self.seeds.workload, index))

    def _build_native(self, kernel: Kernel, app: "BenchmarkApp",
                      collector: str) -> "NativeRuntime":
        """Create a native runtime (C++ apps run on PCM-Only setups)."""
        from repro.machine.topology import PCM_NODE as _PCM
        from repro.native.runtime import NativeRuntime

        if collector != "PCM-Only":
            raise ValueError(
                "native (C++) benchmarks model a PCM-Only system; "
                f"got collector {collector!r}")
        return NativeRuntime(kernel, heap_bytes=app.heap_budget,
                             node=_PCM, thread_socket=1,
                             app_threads=app.app_threads)

    def _make_app(self, app_factory: Callable[..., "BenchmarkApp"],
                  index: int) -> "BenchmarkApp":
        """Instantiate an app, passing the platform's scale when the
        factory accepts one (registry factories do)."""
        import inspect

        try:
            parameters = inspect.signature(app_factory).parameters
        except (TypeError, ValueError):  # builtins, partials without sig
            parameters = {}
        accepts_scale = "scale" in parameters or any(
            p.kind is inspect.Parameter.VAR_KEYWORD
            for p in parameters.values())
        if accepts_scale:
            return app_factory(index, scale=self.scale)
        return app_factory(index)

    def run(self, app_factory: Callable[..., "BenchmarkApp"],
            collector: str = "PCM-Only", instances: int = 1) -> MeasurementResult:
        """Run ``instances`` copies of a benchmark under ``collector``.

        ``app_factory(instance_index)`` must return a fresh benchmark
        instance (with its own copy of the dataset, per the paper's
        multiprogramming methodology).

        Teardown (VM shutdown, monitor shutdown, wear-tracker detach)
        runs even when an iteration raises, so a partial run leaves no
        leaked frames, live monitor process, or dangling write
        listeners behind.
        """
        if instances < 1:
            raise ValueError("need at least one instance")
        host_start = time.perf_counter()
        emulating = self.mode is EmulationMode.EMULATION
        machine = self._machine_spec().build()
        kernel = Kernel(machine, placement=self.placement)
        #: Exposed for tests that inject faults mid-run and then verify
        #: the platform released every frame and monitor process.
        self.debug_last_kernel = kernel
        monitor = WriteRateMonitor(kernel) if emulating else None
        config = collector_config(collector)

        vms: List[object] = []
        apps: List[object] = []
        ctxs = []
        wear_tracker = None
        profiling = PROFILER.enabled
        run_frame = None
        mutator_frame = None
        try:
            for index in range(instances):
                app = self._make_app(app_factory, index)
                if getattr(app, "runtime", "managed") == "native":
                    vm = self._build_native(kernel, app, collector)
                else:
                    vm = self._build_managed(kernel, app, collector, config,
                                             index)
                # Register the VM before app.setup() so a mid-setup
                # failure still tears it down in the finally block.
                vms.append(vm)
                ctx = vm.mutator(seed=self.seeds.derive(self.seeds.workload,
                                                        index + 1000))
                app.setup(ctx)
                apps.append(app)
                ctxs.append(ctx)

            # ---- iteration 1: warm-up (replay compilation's compile pass)
            interval = self.monitor_interval_rounds

            def warmup_round(round_index: int) -> None:
                # Migrate-policy safepoints run during warm-up too, so
                # hot pages reach their steady-state placement before
                # the barrier (replay compilation's whole point).
                if round_index % interval == 0:
                    kernel.placement_tick()

            warmup = Scheduler(seed=self.seeds.scheduler, jitter=emulating)
            warmup.run([app.iteration(ctx) for app, ctx in zip(apps, ctxs)],
                       on_round=warmup_round)

            # ---- barrier: reset counters; snapshot cycles and stats
            machine.reset_counters()
            llc_marks = [(s.llc.stats.hits, s.llc.stats.misses,
                          s.llc.stats.evictions, s.llc.stats.dirty_evictions)
                         for s in machine.sockets]
            if monitor is not None:
                monitor.reset()
            if self.track_wear:
                from repro.machine.wear import WearTracker
                wear_tracker = WearTracker(machine, PCM_NODE)
                if SANITIZE.active is not None:
                    # Anchor the tracker-vs-node-counter law at attach.
                    SANITIZE.watch_wear(wear_tracker)
            stat_marks = [vm.stats.copy() for vm in vms]
            mutator_marks = [sum(t.cycles for t in vm.app_threads)
                             for vm in vms]
            # Kernel migration counters are cumulative (never reset);
            # mark them so the result reports the measured iteration.
            migration_marks = (kernel.pages_migrated,
                               kernel.migration_writes,
                               kernel.migration_cycles)
            if profiling:
                # Baseline sits exactly at the barrier, so attributed
                # deltas and the result's counters share a zero point.
                PROFILER.begin_run(
                    lambda: _counter_snapshot(machine, kernel))
            run_frame = TRACER.push(
                "run", benchmark=getattr(apps[0], "name", "custom"),
                collector=collector, instances=instances)

            # ---- iteration 2: measured, all instances starting together
            measured = Scheduler(seed=self.seeds.scheduler + 1,
                                 jitter=emulating)

            def on_round(round_index: int) -> None:
                if round_index % interval == 0:
                    # Tick before sampling so the monitor reads counters
                    # that already include this safepoint's migrations.
                    kernel.placement_tick()
                    if monitor is not None:
                        monitor.sample(round_index)

            mutator_frame = TRACER.push("mutator")
            try:
                measured.run(
                    [app.iteration(ctx) for app, ctx in zip(apps, ctxs)],
                    on_round=on_round)
            finally:
                TRACER.pop(mutator_frame)

            # ---- gather results
            elapsed_cycles = 0.0
            instance_stats: List[RuntimeStats] = []
            for vm, stat_mark, mutator_mark in zip(vms, stat_marks,
                                                   mutator_marks):
                vm.finish()
                delta = vm.stats.snapshot_delta(stat_mark)
                instance_stats.append(delta)
                mutator_cycles = (sum(t.cycles for t in vm.app_threads)
                                  - mutator_mark)
                gc_thread_count = len(getattr(vm, "gc_threads", ())) or 1
                cycles = (mutator_cycles / len(vm.app_threads)
                          + delta.gc_cycles / gc_thread_count)
                elapsed_cycles = max(elapsed_cycles, cycles)

            pcm_node = machine.nodes[PCM_NODE]
            dram_node = machine.nodes[DRAM_NODE]
            elapsed_seconds = self.latency.seconds(int(elapsed_cycles))
            monitor_rates: List[float] = []
            if monitor is not None and measured.rounds:
                cycles_per_round = elapsed_cycles / measured.rounds
                monitor_rates = monitor.write_rate_series(
                    cycles_per_round, self.latency.frequency_hz)

            llc_stats: List[Dict[str, object]] = []
            for socket, (h0, m0, e0, d0) in zip(machine.sockets, llc_marks):
                stats = socket.llc.stats
                hits, misses = stats.hits - h0, stats.misses - m0
                accesses = hits + misses
                llc_stats.append({
                    "socket": socket.socket_id,
                    "hits": hits,
                    "misses": misses,
                    "evictions": stats.evictions - e0,
                    "dirty_evictions": stats.dirty_evictions - d0,
                    "hit_rate": hits / accesses if accesses else 0.0,
                })
            node_counters: List[Dict[str, object]] = [{
                "node": node.node_id,
                "kind": node.kind,
                "read_lines": node.read_lines,
                "write_lines": node.write_lines,
                "migration_write_lines": node.migration_write_lines,
            } for node in machine.nodes]

            result = MeasurementResult(
                benchmark=getattr(apps[0], "name", "custom"),
                collector=collector,
                mode=self.mode,
                instances=instances,
                pcm_write_lines=pcm_node.write_lines,
                dram_write_lines=dram_node.write_lines,
                elapsed_seconds=elapsed_seconds,
                per_tag_pcm_writes=dict(pcm_node.writes_by_tag),
                per_tag_dram_writes=dict(dram_node.writes_by_tag),
                instance_stats=instance_stats,
                monitor_rates_mbs=monitor_rates,
                node_counters=node_counters,
                llc_stats=llc_stats,
                qpi_crossings=machine.qpi_crossings,
                placement=kernel.placement,
                pages_migrated=kernel.pages_migrated - migration_marks[0],
                migration_writes=(kernel.migration_writes
                                  - migration_marks[1]),
                migration_cycles=(kernel.migration_cycles
                                  - migration_marks[2]),
                pcm_migration_write_lines=pcm_node.migration_write_lines,
                dram_migration_write_lines=dram_node.migration_write_lines,
            )
            if wear_tracker is not None:
                from repro.machine.wear import effective_endurance_efficiency
                result.wear_imbalance = wear_tracker.imbalance()
                result.wear_efficiency = effective_endurance_efficiency(
                    wear_tracker)
            TRACER.pop(run_frame)
            if profiling:
                result.profile = PROFILER.end_run(
                    benchmark=result.benchmark, collector=collector,
                    instances=instances, mode=self.mode.value)
                if SANITIZE.active is not None:
                    # Conservation is checked only on counters the
                    # barrier resets — they share the profile baseline.
                    totals = {
                        "pcm.writes": result.pcm_write_lines,
                        "dram.writes": result.dram_write_lines,
                        "pcm.reads": pcm_node.read_lines,
                        "dram.reads": dram_node.read_lines,
                        "qpi.crossings": result.qpi_crossings,
                    }
                    attributed = {
                        name: attributed_total(result.profile, name)
                        for name in totals}
                    SANITIZE.check_attribution(attributed, totals,
                                               "platform.run")
            self._publish_space_metrics(vms)
            if SANITIZE.active is not None:
                # Full end-of-run sweep while the VMs and the wear
                # tracker are still alive.
                SANITIZE.run_end(kernel, wear_tracker)
        except BaseException:
            # Body failed: tear everything down but let the original
            # exception propagate (teardown failures are recorded, not
            # raised — they must never mask the actual fault).
            if profiling and PROFILER.active:
                PROFILER.abort_run()
            TRACER.pop(mutator_frame)  # no-op when already closed
            TRACER.pop(run_frame)
            self._teardown(wear_tracker, vms, monitor, raise_errors=False)
            raise
        else:
            self._teardown(wear_tracker, vms, monitor, raise_errors=True)
        result.host_seconds = time.perf_counter() - host_start
        self._publish_metrics(kernel, measured, result)
        if TRACER.enabled:
            TRACER.complete("platform.run", host_start,
                            benchmark=result.benchmark, collector=collector,
                            instances=instances, mode=self.mode.value)
        return result

    # ------------------------------------------------------------------
    # Teardown
    # ------------------------------------------------------------------
    @staticmethod
    def _teardown(wear_tracker: "Optional[WearTracker]", vms: List[object],
                  monitor: Optional[WriteRateMonitor],
                  raise_errors: bool) -> None:
        """Run every teardown step; collect failures instead of skipping.

        Partial runs (PageFault, heap exhaustion, app bugs) must not
        leak frames, leave the monitor process alive, or keep the wear
        tracker subscribed to the write stream — and one failing
        ``vm.shutdown()`` must not skip the remaining VMs, the monitor,
        or the wear-tracker detach.  Every step is idempotent and every
        step always runs; failures are aggregated into a
        :class:`PlatformTeardownError` (``raise_errors=True``) or
        recorded in the metrics/trace stream when a body exception is
        already propagating.
        """
        errors: List[BaseException] = []
        steps = []
        if wear_tracker is not None:
            steps.append(wear_tracker.detach)
        steps.extend(vm.shutdown for vm in vms)
        if monitor is not None:
            steps.append(monitor.shutdown)
        for step in steps:
            try:
                step()
            except Exception as exc:  # noqa: BLE001 - aggregated below
                errors.append(exc)
        if not errors:
            return
        METRICS.inc("platform.teardown_errors", len(errors))
        if TRACER.enabled:
            TRACER.event("platform.teardown_error",
                         count=len(errors),
                         errors=[type(e).__name__ for e in errors])
        if raise_errors:
            raise PlatformTeardownError(errors)

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    @staticmethod
    def _publish_space_metrics(vms: List[object]) -> None:
        """Per-space occupancy gauges (``runtime.space.*``)."""
        for vm in vms:
            heap = getattr(vm, "heap", None)
            if heap is None:
                continue
            for name, space in heap.spaces.items():
                used = getattr(space, "bytes_used",
                               getattr(space, "bytes_committed", None))
                if used is not None:
                    METRICS.set(
                        f"runtime.space.{sanitize(name)}.bytes_used", used)

    @staticmethod
    def _publish_metrics(kernel: Kernel, scheduler: Scheduler,
                         result: MeasurementResult) -> None:
        """Accumulate this run's counters into the global registry."""
        for llc in result.llc_stats:
            prefix = f"machine.socket{llc['socket']}.llc"
            METRICS.inc(f"{prefix}.hits", llc["hits"])
            METRICS.inc(f"{prefix}.misses", llc["misses"])
            METRICS.inc(f"{prefix}.dirty_evictions", llc["dirty_evictions"])
        for node in result.node_counters:
            prefix = f"machine.socket{node['node']}.mem"
            METRICS.inc(f"{prefix}.read_lines", node["read_lines"])
            METRICS.inc(f"{prefix}.write_lines", node["write_lines"])
        METRICS.inc("machine.qpi.crossings", result.qpi_crossings)
        METRICS.inc("kernel.mmap_calls", kernel.mmap_calls)
        METRICS.inc("kernel.munmap_calls", kernel.munmap_calls)
        METRICS.inc("kernel.retag_calls", kernel.retag_calls)
        METRICS.inc("kernel.pages_mapped", kernel.pages_mapped)
        METRICS.inc("kernel.pages_unmapped", kernel.pages_unmapped)
        METRICS.inc("kernel.page_faults", kernel.page_faults)
        METRICS.inc("kernel.pages_migrated", kernel.pages_migrated)
        METRICS.inc("kernel.migration_writes", kernel.migration_writes)
        METRICS.inc("kernel.migration_cycles", kernel.migration_cycles)
        METRICS.inc("kernel.scheduler.rounds", scheduler.rounds)
        METRICS.inc("kernel.scheduler.dispatches", scheduler.dispatches)
        gc_prefix = f"gc.{sanitize(result.collector)}"
        for stats in result.instance_stats:
            METRICS.inc(f"{gc_prefix}.minor_collections", stats.minor_gcs)
            METRICS.inc(f"{gc_prefix}.full_collections", stats.full_gcs)
            METRICS.inc(f"{gc_prefix}.observer_collections",
                        stats.observer_collections)
            METRICS.inc(f"{gc_prefix}.nursery_survivors",
                        stats.objects_promoted)
            METRICS.inc(f"{gc_prefix}.large_migrations",
                        stats.large_migrations)
            METRICS.inc(f"{gc_prefix}.bytes_allocated",
                        stats.bytes_allocated)
            METRICS.inc(f"{gc_prefix}.bytes_copied", stats.bytes_copied)
            for pause in stats.pauses:
                METRICS.observe(f"{gc_prefix}.pause_cycles", pause)
        METRICS.observe("platform.run_host_seconds", result.host_seconds)
