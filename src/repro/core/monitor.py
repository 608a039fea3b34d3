"""The write-rate monitor (the paper's ``pcm-memory`` stand-in).

The paper measures PCM writes with Intel's Performance Counter Monitor,
running the monitor process on Socket 0 because that placement gives
deterministic measurements (Section III-B).  The monitor is itself part
of the "system-level" write noise the paper isolates with its PCM-Only
reference setup, so this reproduction's monitor *really writes*: each
sample appends a record to a sample buffer mapped on Socket 0, and a
small amount of kernel bookkeeping noise is modelled alongside.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from repro.config import LINE_SIZE, PAGE_SIZE
from repro.faults.plan import FAULTS
from repro.kernel.process import Process, SimThread
from repro.kernel.vm import Kernel
from repro.machine.topology import PCM_NODE
from repro.observability.metrics import METRICS
from repro.observability.trace import TRACER


@dataclass
class MonitorSample:
    """One sample of the per-node write counters."""

    round_index: int
    node_writes: List[int]  # cumulative write lines per node
    #: Cumulative migration-copy lines per node (subset of
    #: ``node_writes``).  Defaults empty for samples recorded before
    #: migration accounting existed; readers treat missing as zero.
    node_migration_writes: List[int] = field(default_factory=list)


class WriteRateMonitor:
    """Samples per-socket write counters, generating realistic noise.

    Parameters
    ----------
    kernel:
        The simulated OS (the monitor is just another process).
    socket:
        Where the monitor runs (Socket 0, per the paper).
    sample_buffer_pages:
        Size of the mapped sample/working buffer.
    noise_lines_per_sample:
        Lines of monitor+kernel writes generated per sample; this is
        the "system-level activity" the paper's reference setup
        isolates.
    """

    def __init__(self, kernel: Kernel, socket: int = 0,
                 sample_buffer_pages: int = 8,
                 noise_lines_per_sample: int = 16) -> None:
        self.kernel = kernel
        # The monitor is measurement infrastructure: always statically
        # placed so a migrate policy never moves (or mis-attributes) the
        # sample buffer it is writing through.
        self.process: Process = kernel.create_process(
            affinity_socket=socket, placement="static")
        buffer_bytes = sample_buffer_pages * PAGE_SIZE
        self._buffer_start = 0x1000
        self._buffer_bytes = buffer_bytes
        kernel.mmap_bind(self.process, self._buffer_start, buffer_bytes,
                         node_id=socket, tag="monitor")
        self.thread: SimThread = self.process.spawn_thread()
        self.noise_lines_per_sample = noise_lines_per_sample
        self.samples: List[MonitorSample] = []
        self._cursor = 0

    def sample(self, round_index: int) -> MonitorSample:
        """Read the counters and log a record (with write traffic)."""
        machine = self.kernel.machine
        stale = False
        if FAULTS.active is not None:
            # Fault hook: "raise" wedges the monitor mid-sample;
            # "stale" re-publishes the previous counters, modelling a
            # pcm-memory reader stuck on an old snapshot.
            stale = FAULTS.arrive("monitor.sample",
                                  round=round_index) == "stale"
        # A span (not an event) so the monitor's own write noise is
        # attributed to it by the profiler, not to the mutator.
        frame = TRACER.push("monitor.sample", round=round_index)
        try:
            if stale and self.samples:
                node_writes = list(self.samples[-1].node_writes)
                node_migrations = list(
                    self.samples[-1].node_migration_writes)
            else:
                node_writes = [node.write_lines for node in machine.nodes]
                node_migrations = [node.migration_write_lines
                                   for node in machine.nodes]
            record = MonitorSample(round_index=round_index,
                                   node_writes=node_writes,
                                   node_migration_writes=node_migrations)
            self.samples.append(record)
            # The monitor writes its record plus working-set churn.
            for _ in range(self.noise_lines_per_sample):
                offset = (self._cursor * 64) % (self._buffer_bytes - 64)
                self._cursor += 1
                self.thread.access(self._buffer_start + offset, 64, True)
            METRICS.inc("monitor.samples")
        finally:
            TRACER.pop(frame)
        if TRACER.enabled:
            TRACER.event("monitor.sample", round=round_index,
                         node_writes=list(record.node_writes))
        return record

    def reset(self) -> None:
        self.samples = []

    def write_rate_series(self, cycles_per_round: float,
                          frequency_hz: float,
                          node_id: int = PCM_NODE,
                          strict: bool = False,
                          include_migrations: bool = False) -> List[float]:
        """MB/s on ``node_id`` (default: PCM) between consecutive samples.

        The series always has ``len(samples) - 1`` entries, one per
        consecutive sample pair, so it stays aligned with GC rounds.  A
        non-positive interval (duplicate or out-of-order ``round_index``
        samples) yields ``NaN`` at that position — silently dropping it
        used to shift every later rate one slot earlier.  With
        ``strict=True`` a degenerate interval raises ``ValueError``
        instead.

        By default the series is *mutator-only*: page-migration copy
        lines (OS traffic under the ``migrate`` placement policy) are
        subtracted so the paper's write-rate figures stay comparable
        across placement policies.  Pass ``include_migrations=True``
        for the raw device rate the wear model sees.
        """
        rates: List[float] = []
        for earlier, later in zip(self.samples, self.samples[1:]):
            delta_lines = (later.node_writes[node_id]
                           - earlier.node_writes[node_id])
            if not include_migrations:
                earlier_mig = (earlier.node_migration_writes[node_id]
                               if node_id < len(earlier.node_migration_writes)
                               else 0)
                later_mig = (later.node_migration_writes[node_id]
                             if node_id < len(later.node_migration_writes)
                             else 0)
                delta_lines -= later_mig - earlier_mig
            delta_rounds = later.round_index - earlier.round_index
            seconds = delta_rounds * cycles_per_round / frequency_hz
            if seconds <= 0:
                if strict:
                    raise ValueError(
                        f"non-positive sample interval: round "
                        f"{earlier.round_index} -> {later.round_index}")
                rates.append(float("nan"))
                continue
            rates.append(delta_lines * LINE_SIZE / seconds / 1e6)
        return rates

    def shutdown(self) -> None:
        self.process.exit()
