"""The kernel: ``mmap``/``mbind``, placement, and frame bookkeeping.

The paper's modified JVM calls ``mmap()`` to reserve chunk-sized virtual
ranges and ``mbind()`` with a socket number to bind each range to DRAM
(Socket 0) or PCM (Socket 1).  :meth:`Kernel.mmap_bind` performs both in
one step.  *Where* the backing frames come from — and whether they are
allocated eagerly at bind time or lazily at first touch — is decided by
the process's :class:`~repro.kernel.placement.PlacementPolicy`: the
default ``static`` policy eagerly honours the request (the behaviour
every earlier PR assumed), while ``first-touch``, ``interleave``, and
``migrate`` model an OS that ignores the GC's hints.

Migration (:meth:`Kernel.migrate_page`) is the one path that writes
memory the mutator never asked for; its copies are charged through
dedicated migration counters so the sanitizer's conservation law —
node writes == mutator write-backs + flush write-backs + migration
writes — stays checkable.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.config import PAGE_SHIFT, PAGE_SIZE
from repro.faults.plan import FAULTS
from repro.kernel.pagetable import LINES_PER_PAGE_SHIFT, PageFault
from repro.kernel.placement import (
    PlacementPolicy,
    check_placement,
    make_policy,
)
from repro.kernel.process import Process
from repro.machine.numa import NumaMachine
from repro.observability.trace import TRACER
from repro.sanitize.invariants import SANITIZE


class MBindError(Exception):
    """Invalid NUMA binding request."""


class Kernel:
    """Owns the machine's physical memory and process table."""

    def __init__(self, machine: NumaMachine,
                 placement: str = "static") -> None:
        self.machine = machine
        #: Default placement policy name for new processes.
        self.placement = check_placement(placement)
        self.processes: List[Process] = []
        self._next_pid = 1
        #: Policies that need the per-round placement safepoint.
        self._tick_policies: List[PlacementPolicy] = []
        # Syscall/fault counters, copied into the run's result by the
        # platform at the end of a run.
        self.mmap_calls = 0
        self.munmap_calls = 0
        self.retag_calls = 0
        self.pages_mapped = 0
        self.pages_unmapped = 0
        self.page_faults = 0
        # Migration counters: copies are writes the mutator never
        # issued, so they are accounted separately and reconciled by
        # the sanitizer's migration_conservation law.
        self.pages_migrated = 0
        self.migration_writes = 0
        self.migration_cycles = 0

    def count_page_fault(self) -> None:
        """Record one minor fault (called from the access paths).

        ``page_faults`` is a registered counter in the lint policy:
        only the kernel (or a declared counter-mutator) may move it,
        which keeps fault accounting greppable to this one method.
        """
        self.page_faults += 1

    def create_process(self, affinity_socket: int = 0,
                       placement: Optional[str] = None) -> Process:
        """Fork a new process bound to ``affinity_socket``.

        ``placement`` overrides the kernel's default policy for this
        process (the write-rate monitor pins its sample buffer with
        ``static`` so measurement infrastructure is never migrated).
        """
        if not 0 <= affinity_socket < len(self.machine.sockets):
            raise MBindError(f"no such socket: {affinity_socket}")
        policy = make_policy(placement or self.placement, self)
        process = Process(self._next_pid, self, affinity_socket,
                          placement=policy)
        self._next_pid += 1
        self.processes.append(process)
        if policy.needs_tick:
            self._tick_policies.append(policy)
        if policy.wants_writes:
            self.machine.write_listeners.append(policy.on_write)
        return process

    def mmap_bind(self, process: Process, vaddr: int, length: int,
                  node_id: int, tag: Optional[str] = None) -> None:
        """Bind ``[vaddr, vaddr+length)`` to ``node_id`` per the policy.

        ``tag`` attributes the backing frames to a heap space for the
        per-space write breakdown used in simulation mode.

        The process's placement policy decides what "bind" means:
        eager policies back every page with a frame now (the policy
        may override the requested node — ``interleave`` round-robins,
        ``migrate`` forces PCM); lazy policies only *reserve* the range
        and back pages at first touch, so ``pages_mapped`` moves at
        populate time and ``page_faults`` counts real first touches.
        """
        if vaddr % PAGE_SIZE or length % PAGE_SIZE or length <= 0:
            raise MBindError(
                f"unaligned mmap request: vaddr={vaddr:#x} length={length}")
        if not 0 <= node_id < len(self.machine.nodes):
            raise MBindError(f"no such NUMA node: {node_id}")
        if FAULTS.active is not None:  # fault hook: frame exhaustion etc.
            FAULTS.arrive("kernel.mmap_bind", pid=process.pid, vaddr=vaddr,
                          node=node_id, tag=tag)
        first_page = vaddr >> PAGE_SHIFT
        num_pages = length >> PAGE_SHIFT
        page_table = process.page_table
        policy = process.placement
        # Validate before allocating anything: mapping over an existing
        # page (backed or reserved) must fail cleanly.  (Letting
        # map_page raise mid-loop used to make the rollback unmap the
        # *pre-existing* mapping — found by the differential fuzzer as
        # a leaked frame plus a clobbered translation.)
        for vpage in range(first_page, first_page + num_pages):
            if page_table.is_mapped(vpage) or page_table.is_reserved(vpage):
                self.mmap_calls += 1
                raise MBindError(
                    f"mmap range overlaps mapped page {vpage:#x} "
                    f"(vaddr={vaddr:#x} length={length})")
        if policy.lazy:
            # Bind without populating: no frames move, no pages count
            # as mapped until their first touch services the fault.
            for vpage in range(first_page, first_page + num_pages):
                page_table.reserve(vpage, tag)
            self.mmap_calls += 1
            if TRACER.enabled:
                TRACER.event("kernel.mbind", pid=process.pid, vaddr=vaddr,
                             length=length, node=node_id, tag=tag)
            if SANITIZE.active is not None:
                SANITIZE.kernel_op(self, "mmap_bind")
            return
        # (vpage, node_id, frame) fully installed, for rollback.
        mapped: List[Tuple[int, int, int]] = []
        try:
            for vpage in range(first_page, first_page + num_pages):
                placed = policy.place_eager(vpage, node_id)
                pnode_id = node_id if placed is None else placed
                node = self.machine.nodes[pnode_id]
                frame = node.allocate_frame()
                try:
                    if tag is not None:
                        node.tag_frame(frame, tag)
                    page_table.map_page(vpage, pnode_id, frame,
                                        node.frame_to_paddr(frame))
                except Exception:
                    # The in-flight frame never made it into the page
                    # table; hand it straight back.
                    node.free_frame(frame)
                    raise
                mapped.append((vpage, pnode_id, frame))
        except Exception:
            # Mid-range failure (typically frame exhaustion): roll back
            # so the call is all-or-nothing — no partially-populated
            # page table, no leaked frames.  The attempt still counts
            # as one mmap call; no pages count as mapped.
            for vpage, pnode_id, frame in reversed(mapped):
                page_table.unmap_page(vpage)
                self.machine.nodes[pnode_id].free_frame(frame)
            self.mmap_calls += 1
            raise
        for vpage, pnode_id, frame in mapped:
            policy.note_mapped(vpage, pnode_id, frame)
        self.mmap_calls += 1
        self.pages_mapped += num_pages
        if TRACER.enabled:
            TRACER.event("kernel.mbind", pid=process.pid, vaddr=vaddr,
                         length=length, node=node_id, tag=tag)
        if SANITIZE.active is not None:
            SANITIZE.kernel_op(self, "mmap_bind")

    def fault_in(self, process: Process, vpage: int, socket_id: int,
                 vaddr: int) -> int:
        """Service a translation miss from the access paths.

        Counts the fault, then either backs a reserved page (lazy
        policies: the policy picks the node, the page populates, and
        the physical line base of the new frame returns so the access
        continues) or raises :class:`PageFault` for a genuinely
        unbound address — with ``vaddr`` verbatim, so fault messages
        stay byte-identical between the access path and the per-line
        oracle.  Populating adds a brand-new entry to the page table's
        translation dict, which the access paths see on their next
        lookup.
        """
        self.count_page_fault()
        page_table = process.page_table
        if not page_table.is_reserved(vpage):
            raise PageFault(vaddr)
        policy = process.placement
        node_id = policy.place_fault(vpage, socket_id)
        node = self.machine.nodes[node_id]
        # OutOfPhysicalMemory propagates before any bookkeeping moves.
        frame = node.allocate_frame()
        tag = page_table.reserved_tag(vpage)
        if tag is not None:
            node.tag_frame(frame, tag)
        frame_paddr = node.frame_to_paddr(frame)
        page_table.populate(vpage, node_id, frame, frame_paddr)
        self.pages_mapped += 1
        policy.note_mapped(vpage, node_id, frame)
        return frame_paddr >> 6

    def migrate_page(self, process: Process, vpage: int,
                     dest_node_id: int) -> None:
        """Move a backed page to ``dest_node_id``, charging the copy.

        The copy writes every line of the destination frame through
        :meth:`~repro.machine.numa.NumaMachine.migration_write` — the
        writes bypass the cache hierarchy (a device-side copy engine,
        not a mutator access), land in the node's dedicated migration
        counter as well as its write counter, and fire the write
        listeners so PCM wear is charged.  The call is atomic: the
        fault hook fires and the destination frame allocates before
        any counter moves, so an injected failure or exhaustion leaves
        no partial migration behind.  The access paths translate with
        one page-table lookup per touch, so the remap takes effect on
        the next touch.
        """
        if not 0 <= dest_node_id < len(self.machine.nodes):
            raise MBindError(f"no such NUMA node: {dest_node_id}")
        if FAULTS.active is not None:  # fault hook: die before the copy
            FAULTS.arrive("kernel.migrate", pid=process.pid, vpage=vpage,
                          dest=dest_node_id)
        page_table = process.page_table
        src_node_id, src_frame = page_table.entry(vpage)
        if src_node_id == dest_node_id:
            raise MBindError(
                f"page {vpage:#x} already resides on node {dest_node_id}")
        src_node = self.machine.nodes[src_node_id]
        dest_node = self.machine.nodes[dest_node_id]
        # Allocate before copying: exhaustion aborts with nothing moved.
        frame = dest_node.allocate_frame()
        tag = src_node.tag_of_frame(src_frame)
        if tag is not None:
            dest_node.tag_frame(frame, tag)
        frame_paddr = dest_node.frame_to_paddr(frame)
        lines = 1 << LINES_PER_PAGE_SHIFT
        # Span so the copy's writes are attributed to migration, not to
        # whichever phase the safepoint interrupted.
        span = TRACER.push("kernel.migrate", pid=process.pid, vpage=vpage,
                           src=src_node_id, dest=dest_node_id)
        try:
            base = frame_paddr >> 6
            migration_write = self.machine.migration_write
            for offset in range(lines):
                migration_write(base + offset)
        finally:
            TRACER.pop(span)
        page_table.unmap_page(vpage)
        src_node.free_frame(src_frame)
        page_table.map_page(vpage, dest_node_id, frame, frame_paddr)
        process.placement.note_migrated(vpage, src_node_id, src_frame,
                                        dest_node_id, frame)
        self.pages_migrated += 1
        self.migration_writes += lines
        # Reported overhead: each copied line pays the remote-memory
        # round trip (the QPI hop between the nodes).
        self.migration_cycles += lines * self.machine.latency.memory_latency(
            remote=True)
        if SANITIZE.active is not None:
            SANITIZE.kernel_op(self, "migrate")

    def placement_tick(self) -> None:
        """Placement safepoint: let tick-driven policies migrate.

        Called once per scheduler round by the platform (and by the
        fuzzer's ``tick`` op).  The policies' write counts are fed per
        line from the write stream at the point of each write-back, so
        they are complete and identical between the access path and the
        per-line oracle before any decision is made; a no-op when no
        registered policy needs ticks.
        """
        if not self._tick_policies:
            return
        for policy in list(self._tick_policies):
            policy.tick()
        if SANITIZE.active is not None:
            SANITIZE.kernel_op(self, "placement_tick")

    def retag_range(self, process: Process, vaddr: int, length: int,
                    tag: str) -> None:
        """Re-attribute the frames backing a mapped range to ``tag``.

        Used when a free chunk is recycled by a different space: the
        physical pages stay put, only the accounting label changes.
        """
        if vaddr % PAGE_SIZE or length % PAGE_SIZE or length <= 0:
            raise MBindError(
                f"unaligned retag request: vaddr={vaddr:#x} length={length}")
        page_table = process.page_table
        first_page = vaddr >> PAGE_SHIFT
        for vpage in range(first_page, first_page + (length >> PAGE_SHIFT)):
            if page_table.is_reserved(vpage):
                # Not yet backed (lazy policy): the reservation carries
                # the tag its eventual frame will attribute to.
                page_table.retag_reserved(vpage, tag)
                continue
            node_id, frame = page_table.entry(vpage)
            self.machine.nodes[node_id].tag_frame(frame, tag)
        self.retag_calls += 1

    def munmap(self, process: Process, vaddr: int, length: int) -> None:
        """Unmap a range, returning its frames to their nodes.

        All-or-nothing, like :meth:`mmap_bind`: an unmapped page
        anywhere in the range faults before any page is released.
        (The old half-unmap left the counters drifting — frames freed
        without ``pages_unmapped`` moving — another fuzzer find.)
        """
        if vaddr % PAGE_SIZE or length % PAGE_SIZE or length <= 0:
            raise MBindError(
                f"unaligned munmap request: vaddr={vaddr:#x} length={length}")
        if FAULTS.active is not None:  # fault hook: mirrors mmap_bind
            FAULTS.arrive("kernel.munmap", pid=process.pid, vaddr=vaddr,
                          length=length)
        first_page = vaddr >> PAGE_SHIFT
        num_pages = length >> PAGE_SHIFT
        page_table = process.page_table
        policy = process.placement
        for vpage in range(first_page, first_page + num_pages):
            if not (page_table.is_mapped(vpage)
                    or page_table.is_reserved(vpage)):
                self.munmap_calls += 1
                raise PageFault(vpage << PAGE_SHIFT)
        backed = 0
        for vpage in range(first_page, first_page + num_pages):
            if page_table.is_reserved(vpage):
                # Never touched under a lazy policy: no frame to free,
                # and the page never counted as mapped.
                page_table.unreserve(vpage)
                continue
            node_id, frame = page_table.unmap_page(vpage)
            self.machine.nodes[node_id].free_frame(frame)
            policy.note_unmapped(vpage, node_id, frame)
            backed += 1
        self.munmap_calls += 1
        self.pages_unmapped += backed
        if SANITIZE.active is not None:
            SANITIZE.kernel_op(self, "munmap")

    def reclaim_process(self, process: Process) -> None:
        """Tear down a process: free all frames, drop it from the table."""
        if FAULTS.active is not None:  # fault hook: die mid-teardown
            FAULTS.arrive("kernel.reclaim", pid=process.pid)
        policy = process.placement
        reclaimed = 0
        for vpage, node_id, frame in list(process.page_table.entries()):
            process.page_table.unmap_page(vpage)
            self.machine.nodes[node_id].free_frame(frame)
            policy.note_unmapped(vpage, node_id, frame)
            reclaimed += 1
        for vpage in list(process.page_table.reserved_vpages()):
            process.page_table.unreserve(vpage)
        # Reclaimed pages count as unmapped so the live-mapping law
        # (pages_mapped - pages_unmapped == pages still mapped) holds
        # across process exit; reclaim is not a munmap *call*.
        self.pages_unmapped += reclaimed
        if process in self.processes:
            self.processes.remove(process)
        # Retire the process's policy from the safepoint and the write
        # stream; a dead process must never migrate again.
        if policy in self._tick_policies:
            self._tick_policies.remove(policy)
        listeners = self.machine.write_listeners
        if policy.on_write in listeners:
            listeners.remove(policy.on_write)
        if SANITIZE.active is not None:
            SANITIZE.kernel_op(self, "reclaim")
