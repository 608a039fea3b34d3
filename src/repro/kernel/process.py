"""Processes and simulated threads.

A :class:`Process` owns a page table and a set of :class:`SimThread`
contexts.  ``SimThread.access`` is the single hottest function in the
whole simulator: every mutator and collector byte-touch funnels through
it, so it inlines the page-table walk.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional

from repro.kernel.pagetable import (
    LINE_OFFSET_MASK,
    LINES_PER_PAGE_SHIFT,
    PageTable,
)
from repro.kernel.placement import PlacementPolicy, StaticPlacement

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
        # Software TLB: the last vpage -> line-base translation, valid
        # while the page table's epoch is unchanged.  Sequential touches
        # to the same page skip the line_map dict lookup entirely.
        self._tlb_vpage = -1
        self._tlb_base = 0
        self._tlb_epoch = -1

    @property
    def socket_id(self) -> int:
        return self.core_path.socket.socket_id

    def access(self, vaddr: int, size: int, is_write: bool) -> int:
        """Touch ``size`` bytes at ``vaddr``; returns cycles spent."""
        first = vaddr >> 6
        if first != (vaddr + size - 1) >> 6:
            return self.access_block(vaddr, size, is_write)
        # Single-line fast path: one TLB probe, then a one-line run
        # (access_run exits early when the line hits the private cache).
        table = self.process.page_table
        vpage = first >> LINES_PER_PAGE_SHIFT
        if vpage != self._tlb_vpage or table.epoch != self._tlb_epoch:
            base = table.line_base_map.get(vpage)
            if base is None:
                # fault_in counts the fault, then backs a reserved page
                # (lazy policies) or raises PageFault with this vaddr.
                base = self.process.kernel.fault_in(
                    self.process, vpage, self.socket_id, first << 6)
            self._tlb_vpage = vpage
            self._tlb_base = base
            self._tlb_epoch = table.epoch
        cycles = self.core_path.access_run(
            self._tlb_base + (first & LINE_OFFSET_MASK), 1, is_write)
        self.cycles += cycles
        return cycles

    def access_block(self, vaddr: int, size: int, is_write: bool) -> int:
        """Touch ``size`` bytes at ``vaddr`` through the batched engine.

        Counter-identical to :meth:`access_per_line`, but the page-table
        walk happens once per page (with the software TLB short-cutting
        repeats) and each page-contiguous run of lines goes through
        :meth:`~repro.machine.numa.CorePath.access_run` in one call.
        """
        table = self.process.page_table
        line_map = table.line_base_map
        access_run = self.core_path.access_run
        first = vaddr >> 6
        last = (vaddr + size - 1) >> 6
        epoch = table.epoch
        tlb_vpage = self._tlb_vpage if epoch == self._tlb_epoch else -1
        tlb_base = self._tlb_base
        cycles = 0
        while first <= last:
            vpage = first >> LINES_PER_PAGE_SHIFT
            if vpage == tlb_vpage:
                base = tlb_base
            else:
                base = line_map.get(vpage)
                if base is None:
                    # Like the per-line path: earlier runs of this block
                    # have already touched the caches; if fault_in
                    # raises, the faulting run's cycles are discarded
                    # with the exception.  A serviced fault (lazy
                    # policies) returns the fresh frame's line base and
                    # the block continues.
                    base = self.process.kernel.fault_in(
                        self.process, vpage, self.socket_id, first << 6)
                tlb_vpage = vpage
                tlb_base = base
            offset = first & LINE_OFFSET_MASK
            count = min(last - first, LINE_OFFSET_MASK - offset) + 1
            cycles += access_run(base + offset, count, is_write)
            first += count
        self._tlb_vpage = tlb_vpage
        self._tlb_base = tlb_base
        self._tlb_epoch = epoch
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
