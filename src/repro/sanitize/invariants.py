"""Opt-in invariant sanitizer: conservation laws for the whole stack.

Every paper claim tracked in EXPERIMENTS.md is a function of exact
write counters, so silent counter drift is the highest-risk bug class
in this repo.  This module makes the counters *self-checking*: when the
process-wide :data:`SANITIZE` singleton is installed, instrumented
sites across the stack re-derive each counter from an independent
source and flag any disagreement as an :class:`InvariantViolation`.

The hook-point pattern is exactly :mod:`repro.faults`' — one attribute
load plus an ``is None`` test when no sanitizer is installed, so
production runs pay nothing::

    if SANITIZE.active is not None:
        SANITIZE.kernel_op(self, "munmap")

Conservation laws checked (each names the ``law`` field of its
violations):

``write_conservation``
    Lines written to memory nodes == dirty LLC evictions + explicit
    LLC flush write-backs + page-migration copy lines, as deltas since
    the machine was first seen (private-cache dirty evictions land in
    the LLC, not memory; migration copies bypass the caches entirely).
``migration_conservation``
    Each node's migration-copy line counter never exceeds its total
    write counter, and the kernel's cumulative ``migration_writes``
    equals ``pages_migrated`` times the lines per page — a migration
    either copies a whole page and charges every line, or (when fault
    injection aborts it) charges nothing.
``read_conservation``
    Lines read from memory nodes == LLC demand misses, as deltas.
``cache_accounting``
    No cache set overflows its associativity; hit/miss/eviction
    counters never go negative; dirty evictions never exceed demand
    evictions.
``frame_conservation``
    Each node's frames-in-use equals the number of virtual pages
    mapped to it across every live process, and the kernel's
    ``pages_mapped - pages_unmapped`` equals the live mapped total.
``freelist_occupancy``
    Heap committed bytes == in-use chunks across both free lists ==
    chunks held by the chunked spaces; each free list's internal free
    stack agrees with its records.
``wear_conservation``
    A wear tracker's total equals its per-line histogram sum and the
    PCM node's write-counter delta since the tracker was first seen.
``startgap_accounting``
    A Start-Gap leveler's logical-to-physical mapping is a bijection,
    its physical wear sums to writes + copies, and every gap movement
    (including the wrap) charged its copy write.
``attribution_conservation``
    The profiler's per-phase counter deltas (exclusive span intervals;
    see :mod:`repro.observability.profile`) sum to the global counter
    deltas for the same run — every write/read/QPI crossing is
    attributed to exactly one leaf phase, none double-counted.

Violations are recorded on :attr:`Sanitizer.violations`, counted in
the metrics registry (``sanitize.violations.<law>``), emitted as
``sanitize.violation`` trace events, and — in the default strict
mode — raised as :class:`InvariantViolation`.
"""

from __future__ import annotations

import weakref
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.config import PAGE_SHIFT
from repro.observability.metrics import METRICS, sanitize
from repro.observability.trace import TRACER

#: Cache lines per page — the per-page charge of one migration copy.
_LINES_PER_PAGE = 1 << (PAGE_SHIFT - 6)


class InvariantViolation(AssertionError):
    """A conservation law failed (strict mode raises this)."""


@dataclass
class Violation:
    """One recorded invariant failure."""

    law: str
    site: str
    detail: str
    context: Dict[str, object] = field(default_factory=dict)

    def __str__(self) -> str:
        return f"[{self.law}] at {self.site}: {self.detail}"


def _machine_write_sources(machine) -> int:
    """Independent count of lines that can have reached memory."""
    return sum(socket.llc.stats.dirty_evictions + socket.llc.flushed_dirty
               for socket in machine.sockets)


def _machine_read_sources(machine) -> int:
    return sum(socket.llc.stats.misses for socket in machine.sockets)


class Sanitizer:
    """Process-wide invariant checker the hook points consult.

    ``active`` is ``self`` when installed, else ``None``; hook points
    must check it before calling in, mirroring :data:`repro.faults.FAULTS`.
    """

    def __init__(self) -> None:
        self.active: Optional["Sanitizer"] = None
        self.strict = True
        self.violations: List[Violation] = []
        self.checks_run = 0
        # Per-machine counter baselines, captured the first time a
        # machine is seen (deltas start at zero).  Weak keys so watched
        # machines die with their tests/runs.
        self._machine_base: "weakref.WeakKeyDictionary" = \
            weakref.WeakKeyDictionary()
        self._wear_base: "weakref.WeakKeyDictionary" = \
            weakref.WeakKeyDictionary()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def install(self, strict: bool = True) -> "Sanitizer":
        """Arm the sanitizer; ``strict`` raises on the first violation."""
        self.active = self
        self.strict = strict
        self.violations = []
        self.checks_run = 0
        self._machine_base = weakref.WeakKeyDictionary()
        self._wear_base = weakref.WeakKeyDictionary()
        return self

    def uninstall(self) -> None:
        self.active = None
        self._machine_base = weakref.WeakKeyDictionary()
        self._wear_base = weakref.WeakKeyDictionary()

    @contextmanager
    def installed(self, strict: bool = True):
        """Arm for a ``with`` block, disarming after."""
        self.install(strict=strict)
        try:
            yield self
        finally:
            self.uninstall()

    # ------------------------------------------------------------------
    # Violation plumbing
    # ------------------------------------------------------------------
    def _flag(self, law: str, site: str, detail: str, **context) -> None:
        violation = Violation(law, site, detail, context)
        self.violations.append(violation)
        METRICS.inc(f"sanitize.violations.{sanitize(law)}")
        if TRACER.enabled:
            TRACER.event("sanitize.violation", law=law, site=site,
                         detail=detail)
        if self.strict:
            raise InvariantViolation(str(violation))

    # ------------------------------------------------------------------
    # Baselines
    # ------------------------------------------------------------------
    def _baseline(self, machine) -> Dict[str, int]:
        base = self._machine_base.get(machine)
        if base is None:
            base = self.rebaseline(machine)
        return base

    def rebaseline(self, machine) -> Dict[str, int]:
        """Re-anchor a machine's counter deltas (counter-reset hook)."""
        base = {
            "node_writes": sum(n.write_lines for n in machine.nodes),
            "node_reads": sum(n.read_lines for n in machine.nodes),
            "write_sources": _machine_write_sources(machine),
            "read_sources": _machine_read_sources(machine),
            "migration_lines": sum(n.migration_write_lines
                                   for n in machine.nodes),
        }
        self._machine_base[machine] = base
        return base

    # ------------------------------------------------------------------
    # Machine-layer laws
    # ------------------------------------------------------------------
    def check_machine(self, machine, site: str = "machine") -> None:
        """Write/read conservation plus cache accounting sanity."""
        self.checks_run += 1
        base = self._baseline(machine)
        writes = sum(n.write_lines for n in machine.nodes) \
            - base["node_writes"]
        sources = _machine_write_sources(machine) - base["write_sources"]
        migrated = sum(n.migration_write_lines for n in machine.nodes) \
            - base["migration_lines"]
        if writes != sources + migrated:
            self._flag("write_conservation", site,
                       f"node write lines ({writes}) != dirty evictions + "
                       f"flush write-backs ({sources}) + migration copies "
                       f"({migrated})",
                       node_writes=writes, write_sources=sources,
                       migration_lines=migrated)
        for node in machine.nodes:
            if not 0 <= node.migration_write_lines <= node.write_lines:
                self._flag("migration_conservation", site,
                           f"node {node.node_id}: "
                           f"{node.migration_write_lines} migration copy "
                           f"lines exceed {node.write_lines} total write "
                           f"lines", node=node.node_id)
        reads = sum(n.read_lines for n in machine.nodes) - base["node_reads"]
        misses = _machine_read_sources(machine) - base["read_sources"]
        if reads != misses:
            self._flag("read_conservation", site,
                       f"node read lines ({reads}) != LLC demand misses "
                       f"({misses})", node_reads=reads, llc_misses=misses)
        for socket in machine.sockets:
            self._check_cache(socket.llc, site)

    def _check_cache(self, cache, site: str) -> None:
        stats = cache.stats
        if min(stats.hits, stats.misses, stats.evictions,
               stats.dirty_evictions) < 0:
            self._flag("cache_accounting", site,
                       f"{cache.name}: negative counter in "
                       f"{stats.as_dict()}", cache=cache.name)
        if stats.dirty_evictions > stats.evictions:
            self._flag("cache_accounting", site,
                       f"{cache.name}: dirty evictions "
                       f"({stats.dirty_evictions}) exceed evictions "
                       f"({stats.evictions})", cache=cache.name)
        for index, occupancy in enumerate(cache.set_occupancy()):
            if occupancy > cache.assoc:
                self._flag("cache_accounting", site,
                           f"{cache.name}: set {index} holds "
                           f"{occupancy} lines, associativity is "
                           f"{cache.assoc}", cache=cache.name)

    # ------------------------------------------------------------------
    # Attribution law (profiler)
    # ------------------------------------------------------------------
    def check_attribution(self, attributed: Dict[str, int],
                          totals: Dict[str, int],
                          site: str = "profile") -> None:
        """Per-phase attributed counter sums must equal the global deltas.

        ``attributed`` maps counter name to the sum of that counter's
        per-phase deltas (including the ``(outside)`` bucket);
        ``totals`` maps the same names to the globally measured deltas.
        The exclusive-interval construction makes these telescoping
        sums, so any mismatch means a counter moved while the profiler
        was not looking — a lost or double-counted boundary.
        """
        self.checks_run += 1
        for name in sorted(totals):
            total = totals[name]
            summed = attributed.get(name, 0)
            if summed != total:
                self._flag("attribution_conservation", site,
                           f"{name}: attributed sum ({summed}) != global "
                           f"delta ({total})",
                           counter=name, attributed=summed, total=total)

    # ------------------------------------------------------------------
    # Kernel-layer laws
    # ------------------------------------------------------------------
    def check_kernel(self, kernel, site: str = "kernel") -> None:
        """Frame and migration conservation."""
        self.checks_run += 1
        mapped_per_node = [0] * len(kernel.machine.nodes)
        mapped_total = 0
        for process in kernel.processes:
            for _vpage, node_id, _frame in process.page_table.entries():
                mapped_per_node[node_id] += 1
                mapped_total += 1
        for node, mapped in zip(kernel.machine.nodes, mapped_per_node):
            if node.frames_in_use != mapped:
                self._flag("frame_conservation", site,
                           f"node {node.node_id}: {node.frames_in_use} "
                           f"frames in use but {mapped} pages mapped",
                           node=node.node_id,
                           frames_in_use=node.frames_in_use, mapped=mapped)
        live = kernel.pages_mapped - kernel.pages_unmapped
        if live != mapped_total:
            self._flag("frame_conservation", site,
                       f"pages_mapped - pages_unmapped = {live} but "
                       f"{mapped_total} pages are live",
                       counter_live=live, mapped=mapped_total)
        expected = kernel.pages_migrated * _LINES_PER_PAGE
        if kernel.migration_writes != expected:
            self._flag("migration_conservation", site,
                       f"{kernel.migration_writes} migration write lines "
                       f"but {kernel.pages_migrated} pages migrated "
                       f"(expected {expected}; migrations must be atomic)",
                       migration_writes=kernel.migration_writes,
                       pages_migrated=kernel.pages_migrated)

    # ------------------------------------------------------------------
    # Runtime-layer laws
    # ------------------------------------------------------------------
    def check_heap(self, heap, site: str = "heap") -> None:
        """Free-list occupancy matches the heap's committed budget."""
        self.checks_run += 1
        in_use_bytes = 0
        for freelist in (heap.freelist_lo, heap.freelist_hi):
            self._check_freelist(freelist, site)
            in_use_bytes += freelist.chunks_in_use * freelist.chunk_size
        if heap.committed != in_use_bytes:
            self._flag("freelist_occupancy", site,
                       f"heap committed {heap.committed} B but free lists "
                       f"hold {in_use_bytes} B of in-use chunks",
                       committed=heap.committed, in_use=in_use_bytes)
        space_bytes = sum(space.bytes_committed
                          for space in heap.chunked_spaces())
        if space_bytes != in_use_bytes:
            self._flag("freelist_occupancy", site,
                       f"chunked spaces hold {space_bytes} B but free "
                       f"lists say {in_use_bytes} B are in use",
                       space_bytes=space_bytes, in_use=in_use_bytes)

    def _check_freelist(self, freelist, site: str) -> None:
        records = freelist.records()
        free_records = sum(1 for record in records if record.free)
        if free_records != len(freelist._free):
            self._flag("freelist_occupancy", site,
                       f"{freelist.name}: {free_records} records marked "
                       f"free but the free stack holds "
                       f"{len(freelist._free)}", freelist=freelist.name)
        if freelist.chunks_in_use < 0:
            self._flag("freelist_occupancy", site,
                       f"{freelist.name}: negative chunks_in_use "
                       f"({freelist.chunks_in_use})", freelist=freelist.name)

    # ------------------------------------------------------------------
    # Wear-layer laws
    # ------------------------------------------------------------------
    def check_wear(self, tracker, site: str = "wear") -> None:
        """Wear totals agree with the histogram and node counters."""
        self.checks_run += 1
        histogram_total = sum(tracker.wear.values())
        if tracker.total_writes != histogram_total:
            self._flag("wear_conservation", site,
                       f"tracker total {tracker.total_writes} != histogram "
                       f"sum {histogram_total}")
        node = tracker.machine.nodes[tracker.node_id]
        base = self._wear_base.get(tracker)
        if base is None:
            # First sight: anchor to the node counter so the delta law
            # holds from here on (the platform watches at attach time).
            self._wear_base[tracker] = (node.write_lines
                                        - tracker.total_writes)
            base = self._wear_base[tracker]
        delta = node.write_lines - base
        if tracker.total_writes != delta:
            self._flag("wear_conservation", site,
                       f"tracker counted {tracker.total_writes} writes but "
                       f"node {tracker.node_id} gained {delta}",
                       tracker_total=tracker.total_writes, node_delta=delta)

    def check_leveler(self, leveler, site: str = "startgap") -> None:
        """Start-Gap mapping bijectivity and copy accounting."""
        self.checks_run += 1
        slots = {leveler.physical_slot(line)
                 for line in range(leveler.region_lines)}
        if len(slots) != leveler.region_lines or leveler.gap in slots:
            self._flag("startgap_accounting", site,
                       f"mapping is not a bijection (|image|={len(slots)}, "
                       f"gap={leveler.gap} "
                       f"{'occupied' if leveler.gap in slots else 'free'})")
        total = sum(leveler.physical_wear)
        expected = leveler.total_writes + leveler.gap_copies
        if total != expected:
            self._flag("startgap_accounting", site,
                       f"physical wear sums to {total}, expected "
                       f"{expected} (writes + copies)")
        if leveler.gap_copies != leveler.gap_moves:
            self._flag("startgap_accounting", site,
                       f"{leveler.gap_moves} gap moves but only "
                       f"{leveler.gap_copies} copy writes charged "
                       f"(the wrap move must copy too)")

    # ------------------------------------------------------------------
    # Hook-point entries (call sites guard with ``active is not None``)
    # ------------------------------------------------------------------
    def kernel_op(self, kernel, site: str) -> None:
        """After a kernel operation (mmap/munmap/reclaim)."""
        self.check_kernel(kernel, site=f"kernel.{site}")
        self.check_machine(kernel.machine, site=f"kernel.{site}")

    def machine_op(self, machine, site: str) -> None:
        """After a machine-level operation (flush_all)."""
        self.check_machine(machine, site=f"machine.{site}")

    def gc_round(self, vm) -> None:
        """After a minor or full collection."""
        site = "gc.round"
        self.check_heap(vm.heap, site=site)
        self.check_kernel(vm.kernel, site=site)
        self.check_machine(vm.kernel.machine, site=site)

    def run_end(self, kernel, wear_tracker=None) -> None:
        """End of a platform run: one full sweep."""
        site = "platform.run"
        self.check_kernel(kernel, site=site)
        self.check_machine(kernel.machine, site=site)
        if wear_tracker is not None:
            self.check_wear(wear_tracker, site=site)

    def watch_wear(self, tracker) -> None:
        """Anchor a tracker's node-counter baseline (attach-time hook)."""
        node = tracker.machine.nodes[tracker.node_id]
        self._wear_base[tracker] = node.write_lines - tracker.total_writes


#: The process-wide sanitizer every hook point consults.  Not installed
#: by default; hooks pay one ``is None`` check.
SANITIZE = Sanitizer()
