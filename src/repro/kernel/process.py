"""Processes and simulated threads.

A :class:`Process` owns a page table and a set of :class:`SimThread`
contexts.  ``SimThread.access`` is the single hottest function in the
whole simulator: every mutator and collector byte-touch funnels through
it, so it inlines the page-table walk and, for one-line touches, the
whole cache walk.
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

        One page-table lookup per touch.  A one-line touch on a core
        with a private cache runs the line's private -> LLC -> memory
        sequence right here, in this frame; other touches inside one
        virtual page are one ``access_run`` over their lines, and
        page-crossing touches go through :meth:`access_block`.
        """
        first = vaddr >> 6
        last = (vaddr + size - 1) >> 6
        if last < first:
            # An empty touch covers no line: no fault, no cache access.
            return 0
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
        if first != last or core.private is None:
            cycles = core.access_run(line, last - first + 1, is_write)
            self.cycles += cycles
            return cycles
        # One line: CorePath.access_run's count == 1 sequence, inline —
        # the same pops and inserts in the same order and the same
        # counter increments.  Write-backs call machine.memory_write at
        # the point of use, so a patched NumaMachine.memory_write (the
        # lost-writeback canary) is honoured here too.
        p_num = core.p_num
        p_si = line % p_num
        p_tag = line // p_num
        cache_set = core.p_sets[p_si]
        dirty = cache_set.pop(p_tag, None)
        if dirty is not None:
            cache_set[p_tag] = dirty or is_write
            core.p_stats.hits += 1
            cycles = core.l2_hit
            self.cycles += cycles
            return cycles
        p_stats = core.p_stats
        l_stats = core.l_stats
        l_sets = core.l_sets
        l_num = core.l_num
        l_assoc = core.l_assoc
        p_stats.misses += 1
        if len(cache_set) >= core.p_assoc:
            for victim_tag in cache_set:
                break
            p_stats.evictions += 1
            if cache_set.pop(victim_tag):
                p_stats.dirty_evictions += 1
                # Write the victim back into the LLC, which may displace
                # a dirty LLC line to memory.
                victim = victim_tag * p_num + p_si
                wb_index = victim % l_num
                wb_set = l_sets[wb_index]
                wb_tag = victim // l_num
                if wb_set.pop(wb_tag, None) is None:
                    if len(wb_set) >= l_assoc:
                        for out_tag in wb_set:
                            break
                        l_stats.evictions += 1
                        if wb_set.pop(out_tag):
                            l_stats.dirty_evictions += 1
                            core.machine.memory_write(
                                out_tag * l_num + wb_index)
                wb_set[wb_tag] = True
        cache_set[p_tag] = is_write
        # The demand read to the LLC.
        l_si = line % l_num
        l_set = l_sets[l_si]
        l_tag = line // l_num
        dirty = l_set.pop(l_tag, None)
        if dirty is not None:
            l_set[l_tag] = dirty
            l_stats.hits += 1
            cycles = core.llc_hit
        else:
            if len(l_set) >= l_assoc:
                for out_tag in l_set:
                    break
                l_stats.evictions += 1
                if l_set.pop(out_tag):
                    l_stats.dirty_evictions += 1
                    core.machine.memory_write(out_tag * l_num + l_si)
            l_set[l_tag] = False
            l_stats.misses += 1
            node = core.nodes[line >> NODE_LINE_SHIFT]
            node.read_lines += 1
            if node.node_id != core.home_node:
                core.machine.qpi_crossings += 1
                cycles = core.remote_dram
            else:
                cycles = core.local_dram
        self.cycles += cycles
        return cycles

    def access_block(self, vaddr: int, size: int, is_write: bool) -> int:
        """Touch ``size`` bytes at ``vaddr`` page by page.

        Counter-identical to :meth:`access_per_line`, but the page-table
        walk happens once per page and each page-contiguous run of
        lines goes through
        :meth:`~repro.machine.numa.CorePath.access_run` in one call.
        """
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
