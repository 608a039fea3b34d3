"""Processes and simulated threads.

A :class:`Process` owns a page table and a set of :class:`SimThread`
contexts.  ``SimThread.access`` is the single hottest function in the
whole simulator: every mutator and collector byte-touch funnels through
it, so it inlines the page-table walk and, for short touches inside one
page, the whole cache walk.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional

from repro.kernel.pagetable import (
    LINE_OFFSET_MASK,
    LINES_PER_PAGE_SHIFT,
    PageTable,
)
from repro.kernel.placement import PlacementPolicy, StaticPlacement
from repro.machine.memory import NODE_LINE_SHIFT

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.kernel.vm import Kernel
    from repro.machine.numa import CorePath

#: In-page touches of at most this many lines run in SimThread.access's
#: frame; longer ones repay an access_run call with its local tallies.
SHORT_TOUCH_LINES = 4


class SimThread:
    """One executing context: a core access path plus a cycle counter."""

    def __init__(self, thread_id: int, process: "Process",
                 core_path: "CorePath") -> None:
        self.thread_id = thread_id
        self.process = process
        self.core_path = core_path
        self.cycles = 0
        # The page table mutates this dict in place and never replaces
        # it, so one binding serves every translation.
        self.line_base_map = process.page_table.line_base_map

    @property
    def socket_id(self) -> int:
        return self.core_path.socket.socket_id

    def access(self, vaddr: int, size: int, is_write: bool) -> int:
        """Touch ``size`` bytes at ``vaddr``; returns cycles spent.

        One page-table lookup per touch.  On a core with a private
        cache, a touch of at most ``SHORT_TOUCH_LINES`` lines inside one
        virtual page runs each line's private -> LLC -> memory sequence
        here, in this frame, bumping the stats line by line.  Any other
        in-page touch is one ``access_run`` over its lines, and
        page-crossing touches go through :meth:`access_block`.
        """
        if size <= 0:
            # An empty touch covers no line: no fault, no cache access.
            return 0
        first = vaddr >> 6
        last = (vaddr + size - 1) >> 6
        vpage = first >> LINES_PER_PAGE_SHIFT
        if vpage != last >> LINES_PER_PAGE_SHIFT:
            return self.access_block(vaddr, size, is_write)
        base = self.line_base_map.get(vpage)
        if base is None:
            # fault_in counts the fault, then backs a reserved page
            # (lazy policies) or raises PageFault with this vaddr.
            base = self.process.kernel.fault_in(
                self.process, vpage, self.socket_id, first << 6)
        line = base + (first & LINE_OFFSET_MASK)
        core = self.core_path
        if last - first >= SHORT_TOUCH_LINES or core.private is None:
            cycles = core.access_run(line, last - first + 1, is_write)
            self.cycles += cycles
            return cycles
        # CorePath.access_run's pops and inserts, line by line, with the
        # stats bumped as each line lands.  Write-backs call
        # machine.memory_write at the point of use, so a patched one
        # (the lost-writeback canary) is honoured here too.
        p_sets = core.p_sets
        p_num = core.p_num
        p_stats = core.p_stats
        end = line + last - first
        cycles = 0
        while True:
            cache_set = p_sets[line % p_num]
            dirty = cache_set.pop(line, None)
            if dirty is not None:
                cache_set[line] = dirty or is_write
                p_stats.hits += 1
                cycles += core.l2_hit
            else:
                p_stats.misses += 1
                if len(cache_set) >= core.p_assoc:
                    for victim in cache_set:
                        break
                    p_stats.evictions += 1
                    if cache_set.pop(victim):
                        p_stats.dirty_evictions += 1
                        # Write the victim back into the LLC, which may
                        # displace a dirty LLC line to memory.
                        wb_set = core.l_sets[victim % core.l_num]
                        if wb_set.pop(victim, None) is None:
                            if len(wb_set) >= core.l_assoc:
                                for out in wb_set:
                                    break
                                core.l_stats.evictions += 1
                                if wb_set.pop(out):
                                    core.l_stats.dirty_evictions += 1
                                    core.machine.memory_write(out)
                        wb_set[victim] = True
                cache_set[line] = is_write
                # The demand read to the LLC.
                l_set = core.l_sets[line % core.l_num]
                dirty = l_set.pop(line, None)
                if dirty is not None:
                    l_set[line] = dirty
                    core.l_stats.hits += 1
                    cycles += core.llc_hit
                else:
                    l_stats = core.l_stats
                    if len(l_set) >= core.l_assoc:
                        for out in l_set:
                            break
                        l_stats.evictions += 1
                        if l_set.pop(out):
                            l_stats.dirty_evictions += 1
                            core.machine.memory_write(out)
                    l_set[line] = False
                    l_stats.misses += 1
                    node = core.nodes[line >> NODE_LINE_SHIFT]
                    node.read_lines += 1
                    if node.node_id != core.home_node:
                        core.machine.qpi_crossings += 1
                        cycles += core.remote_dram
                    else:
                        cycles += core.local_dram
            if line == end:
                break
            line += 1
        self.cycles += cycles
        return cycles

    def access_objects(self, vaddr: int, size: int, count: int,
                       is_write: bool) -> int:
        """Touch ``count`` back-to-back objects of ``size`` bytes from
        ``vaddr``; returns cycles spent.

        Counter-identical to calling :meth:`access` once per object, in
        address order, but with one touch over their union.  An object
        whose start falls inside a line begins on the line its
        predecessor's touch ended on: this core's MRU line, just touched
        with the same ``is_write``.  The per-object path scores a
        first-level hit there that moves no LRU order, dirty bit or
        write-back, so each such boundary is counted here as that hit
        alone.  If the union touch raises (a page that ``fault_in``
        cannot back), no cycles are kept, where per-object calls would
        keep those of the objects before the fault.
        """
        if size <= 0 or count <= 0:
            return 0
        cycles = self.access(vaddr, size * count, is_write)
        rehits = count - 1
        for boundary in range(vaddr + size, vaddr + size * count, size):
            if not boundary & 63:
                rehits -= 1
        if rehits:
            core = self.core_path
            if core.private is not None:
                core.private.rehit(rehits)
                rehit_cycles = rehits * core.l2_hit
            else:
                core.socket.llc.rehit(rehits)
                rehit_cycles = rehits * core.llc_hit
            self.cycles += rehit_cycles
            cycles += rehit_cycles
        return cycles

    def access_block(self, vaddr: int, size: int, is_write: bool) -> int:
        """Touch ``size`` bytes at ``vaddr`` page by page.

        Counter-identical to :meth:`access_per_line`, but the page-table
        walk happens once per page and each page-contiguous run of
        lines goes through
        :meth:`~repro.machine.numa.CorePath.access_run` in one call.
        """
        if size <= 0:
            return 0
        line_map = self.line_base_map
        access_run = self.core_path.access_run
        first = vaddr >> 6
        last = (vaddr + size - 1) >> 6
        cycles = 0
        while first <= last:
            vpage = first >> LINES_PER_PAGE_SHIFT
            base = line_map.get(vpage)
            if base is None:
                # Like the per-line path: earlier runs of this block
                # have already touched the caches; if fault_in raises,
                # the faulting run's cycles are discarded with the
                # exception.  A serviced fault (lazy policies) returns
                # the fresh frame's line base and the block continues.
                base = self.process.kernel.fault_in(
                    self.process, vpage, self.socket_id, first << 6)
            offset = first & LINE_OFFSET_MASK
            count = min(last - first, LINE_OFFSET_MASK - offset) + 1
            cycles += access_run(base + offset, count, is_write)
            first += count
        self.cycles += cycles
        return cycles

    def access_per_line(self, vaddr: int, size: int, is_write: bool) -> int:
        """Reference per-line engine (the pre-batching implementation).

        Kept as the baseline the hot-path benchmark times against and
        the oracle the equivalence tests compare counters with.
        """
        if size <= 0:
            return 0
        line_map = self.process.page_table.line_base_map
        access_line = self.core_path.access_line
        first = vaddr >> 6
        last = (vaddr + size - 1) >> 6
        cycles = 0
        for vline in range(first, last + 1):
            base = line_map.get(vline >> LINES_PER_PAGE_SHIFT)
            if base is None:
                base = self.process.kernel.fault_in(
                    self.process, vline >> LINES_PER_PAGE_SHIFT,
                    self.socket_id, vline << 6)
            cycles += access_line(base + (vline & LINE_OFFSET_MASK), is_write)
        self.cycles += cycles
        return cycles

    def compute(self, cycles: int) -> None:
        """Account non-memory work (the latency model's op cost)."""
        self.cycles += cycles


class Process:
    """A managed or native application instance.

    Threads are bound to ``affinity_socket`` (the paper binds everything
    to Socket 0, or to Socket 1 when emulating PCM-Only, Section III-B).
    """

    def __init__(self, pid: int, kernel: "Kernel",
                 affinity_socket: int = 0,
                 placement: Optional[PlacementPolicy] = None) -> None:
        self.pid = pid
        self.kernel = kernel
        self.affinity_socket = affinity_socket
        self.page_table = PageTable()
        # Placement policy for this process's pages; the kernel's
        # create_process passes the resolved one, direct construction
        # (tests, tools) defaults to today's static behaviour.
        if placement is None:
            placement = StaticPlacement(kernel)
        placement.bind(self)
        self.placement: PlacementPolicy = placement
        self.threads: List[SimThread] = []
        self._next_tid = 0

    def spawn_thread(self, socket_id: Optional[int] = None) -> SimThread:
        """Create a thread bound to ``socket_id`` (default: affinity)."""
        socket = self.affinity_socket if socket_id is None else socket_id
        core_path = self.kernel.machine.make_core(socket)
        thread = SimThread(self._next_tid, self, core_path)
        self._next_tid += 1
        self.threads.append(thread)
        return thread

    def total_cycles(self) -> int:
        return sum(thread.cycles for thread in self.threads)

    def drain_caches(self) -> None:
        """Flush this process's private caches into the shared LLC."""
        for thread in self.threads:
            thread.core_path.drain()

    def exit(self) -> None:
        """Release every physical frame this process maps."""
        self.kernel.reclaim_process(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Process(pid={self.pid}, threads={len(self.threads)})"
