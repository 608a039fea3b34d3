"""Two-socket NUMA machine: sockets, QPI, and the core access path.

The paper's platform (Figure 2): threads execute on Socket 0 whose DRAM
emulates DRAM, while Socket 1's DRAM emulates PCM and runs no threads.
Here a :class:`Socket` bundles a shared LLC with a memory node, and a
:class:`CorePath` is the per-hardware-thread access path (private cache
in front of its socket's LLC).  Remote accesses pay a QPI latency
penalty, mirroring the emulator's use of remote-socket latency as a
stand-in for PCM latency.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.config import LatencyModel
from repro.faults.plan import FAULTS
from repro.machine.cache import CacheLevel, CacheStats
from repro.machine.memory import NODE_LINE_SHIFT, MemoryNode, node_of_line
from repro.observability.trace import TRACER
from repro.sanitize.invariants import SANITIZE


class Socket:
    """One CPU socket: cores sharing an LLC, plus attached memory."""

    def __init__(self, socket_id: int, llc: CacheLevel, memory: MemoryNode,
                 cores: int, hyperthreads: int = 2) -> None:
        self.socket_id = socket_id
        self.llc = llc
        self.memory = memory
        self.cores = cores
        self.hyperthreads = hyperthreads

    @property
    def logical_cpus(self) -> int:
        return self.cores * self.hyperthreads

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Socket({self.socket_id}, {self.cores} cores, {self.memory.kind})"


class CorePath:
    """The memory-access path of one executing context.

    Owns a private cache (modelling the per-core L1+L2) in front of its
    socket's shared LLC.  ``access`` returns the latency in cycles and
    routes dirty evictions to the owning memory node's counters.
    """

    # Bound only when the core has a private cache.
    p_sets: List[Dict[int, bool]]
    p_num: int
    p_assoc: int
    p_stats: CacheStats

    def __init__(self, machine: "NumaMachine", socket: Socket,
                 private: Optional[CacheLevel]) -> None:
        self.machine = machine
        self.socket = socket
        self.private = private
        # The hot fields, bound once: none of them is reassigned after
        # CacheLevel.__init__ or NumaMachine.__init__, so the access
        # loops (access_run and the short-touch loop in SimThread.access)
        # read plain attributes and set nothing up per call.
        llc = socket.llc
        self.l_sets = llc._sets
        self.l_num = llc.num_sets
        self.l_assoc = llc.assoc
        self.l_stats = llc.stats
        if private is not None:
            self.p_sets = private._sets
            self.p_num = private.num_sets
            self.p_assoc = private.assoc
            self.p_stats = private.stats
        latency = machine.latency
        self.l2_hit = latency.l2_hit
        self.llc_hit = latency.llc_hit
        self.local_dram = latency.local_dram
        self.remote_dram = latency.remote_dram
        self.home_node = socket.memory.node_id
        self.nodes = machine.nodes

    def access_line(self, line: int, is_write: bool) -> int:
        """Access one physical cache line; returns cycles spent."""
        machine = self.machine
        latency = machine.latency
        private = self.private
        llc = self.socket.llc
        if private is not None:
            hit, victim, victim_dirty = private.access(line, is_write)
            if hit:
                return latency.l2_hit
            if victim_dirty:
                # Write-back into the LLC; may displace a dirty LLC line
                # all the way to memory.
                wb_victim, wb_dirty = llc.install_dirty(victim)
                if wb_dirty:
                    machine.memory_write(wb_victim)
            hit, victim, victim_dirty = llc.access(line, False)
        else:
            hit, victim, victim_dirty = llc.access(line, is_write)
        if victim_dirty:
            machine.memory_write(victim)
        if hit:
            return latency.llc_hit
        node = node_of_line(line)
        machine.nodes[node].record_read(line)
        remote = node != self.socket.memory.node_id
        if remote:
            machine.qpi_crossings += 1
        return latency.memory_latency(remote=remote)

    def access_run(self, first_line: int, count: int, is_write: bool) -> int:
        """Access ``count`` consecutive physical lines; returns cycles.

        Bulk equivalent of calling :meth:`access_line` once per line in
        ascending order — simulated counters come out bit-identical —
        but the private-cache probe, LLC routing, and memory-write
        propagation are fused into one Python frame per run instead of
        three frames per line.  Callers must keep a run inside one
        physical frame (the batched page-table walk does), so the whole
        run has a single home node.  ``SimThread.access`` serves in-page
        touches of up to ``SHORT_TOUCH_LINES`` lines itself on a core
        with a private cache; this runs its longer in-page touches,
        each page of a page-crossing touch, and LLC-only cores' touches.

        Only the stats that moved are added, once, after the run.
        """
        if count <= 0:
            return 0
        machine = self.machine
        if self.private is None:
            hits, dirty_victims = self.socket.llc.access_run(
                first_line, count, is_write)
            for victim in dirty_victims:
                machine.memory_write(victim)
            misses = count - hits
            cycles = hits * self.llc_hit
            if misses:
                node = self.nodes[first_line >> NODE_LINE_SHIFT]
                # record_read() only increments, so batch the increment.
                node.read_lines += misses
                if node.node_id != self.home_node:
                    machine.qpi_crossings += misses
                    cycles += misses * self.remote_dram
                else:
                    cycles += misses * self.local_dram
            return cycles

        # Fused private + LLC + memory routing.  This deliberately works
        # on the caches' set dicts directly: it is the per-line sequence
        # of CacheLevel.access / install_dirty pops and inserts, inlined
        # so the hot loop stays in this frame.  The private-hit path
        # carries no counter updates at all — hits and cycles are
        # derived from the miss counts after the run (identical totals;
        # latency is a pure function of the hit/miss classification).
        # Sets are keyed by line, so a victim is its own key.
        # Write-backs call machine.memory_write at the point of use, so
        # a patched NumaMachine.memory_write (the lost-writeback canary)
        # is always honoured.
        p_sets = self.p_sets
        p_num = self.p_num
        p_assoc = self.p_assoc
        l_sets = self.l_sets
        l_num = self.l_num
        l_assoc = self.l_assoc
        p_misses = p_evictions = p_dirty = 0
        l_hits = l_evictions = l_dirty = 0
        for line in range(first_line, first_line + count):
            cache_set = p_sets[line % p_num]
            dirty = cache_set.pop(line, None)
            if dirty is not None:
                cache_set[line] = dirty or is_write
            else:
                p_misses += 1
                # Private miss: evict (write-back into the LLC, which
                # may displace a dirty LLC line to memory), allocate,
                # then issue the demand read to the LLC.
                if len(cache_set) >= p_assoc:
                    for victim in cache_set:
                        break
                    p_evictions += 1
                    if cache_set.pop(victim):
                        p_dirty += 1
                        wb_set = l_sets[victim % l_num]
                        if wb_set.pop(victim, None) is None:
                            if len(wb_set) >= l_assoc:
                                for out in wb_set:
                                    break
                                l_evictions += 1
                                if wb_set.pop(out):
                                    l_dirty += 1
                                    machine.memory_write(out)
                        wb_set[victim] = True
                cache_set[line] = is_write
                l_set = l_sets[line % l_num]
                dirty = l_set.pop(line, None)
                if dirty is not None:
                    l_set[line] = dirty
                    l_hits += 1
                else:
                    if len(l_set) >= l_assoc:
                        for out in l_set:
                            break
                        l_evictions += 1
                        if l_set.pop(out):
                            l_dirty += 1
                            machine.memory_write(out)
                    l_set[line] = False
        p_stats = self.p_stats
        p_hits = count - p_misses
        cycles = p_hits * self.l2_hit
        if p_hits:
            p_stats.hits += p_hits
        if not p_misses:
            return cycles  # every line hit the private cache
        l_misses = p_misses - l_hits
        p_stats.misses += p_misses
        if p_evictions:
            p_stats.evictions += p_evictions
            if p_dirty:
                p_stats.dirty_evictions += p_dirty
        l_stats = self.l_stats
        if l_hits:
            l_stats.hits += l_hits
            cycles += l_hits * self.llc_hit
        if l_evictions:
            l_stats.evictions += l_evictions
            if l_dirty:
                l_stats.dirty_evictions += l_dirty
        if l_misses:
            l_stats.misses += l_misses
            node = self.nodes[first_line >> NODE_LINE_SHIFT]
            node.read_lines += l_misses
            if node.node_id != self.home_node:
                machine.qpi_crossings += l_misses
                cycles += l_misses * self.remote_dram
            else:
                cycles += l_misses * self.local_dram
        return cycles

    def drain(self) -> None:
        """Flush the private cache into the LLC (end-of-run hygiene)."""
        if self.private is None:
            return
        llc = self.socket.llc
        for line in self.private.flush():
            wb_victim, wb_dirty = llc.install_dirty(line)
            if wb_dirty:
                self.machine.memory_write(wb_victim)


class NumaMachine:
    """A multi-socket machine with per-node write counters.

    Parameters
    ----------
    sockets:
        The sockets, indexed by socket id; ``sockets[i].memory.node_id``
        must equal ``i``.
    latency:
        The cycle-cost model shared by every core.
    """

    def __init__(self, sockets: List[Socket], latency: LatencyModel) -> None:
        if not sockets:
            raise ValueError("a machine needs at least one socket")
        for index, socket in enumerate(sockets):
            if socket.socket_id != index or socket.memory.node_id != index:
                raise ValueError("socket/node ids must match their index")
        self.sockets = sockets
        self.nodes: List[MemoryNode] = [s.memory for s in sockets]
        self.latency = latency
        #: Optional hook fired on every memory write (line address); the
        #: write-rate monitor and tests subscribe here.
        self.write_listeners: List[Callable[[int], None]] = []
        #: Demand misses served by a remote socket's memory (the QPI
        #: hops the emulator uses as its PCM-latency stand-in).
        self.qpi_crossings = 0
        self._core_caches: Dict[int, int] = {}
        self.private_cache_factory: Optional[Callable[[], CacheLevel]] = None

    def memory_write(self, line: int) -> None:
        """Route a dirty-line write-back to its home node."""
        self.nodes[line >> NODE_LINE_SHIFT].record_write(line)
        for listener in self.write_listeners:
            listener(line)

    def migration_write(self, line: int) -> None:
        """Route one page-migration copy line to its home node.

        Like :meth:`memory_write` but lands in the node's dedicated
        migration counter (and the ``(migration)`` attribution tag)
        alongside its write counter.  Listeners fire as usual so the
        wear tracker charges the copy to PCM endurance.  Migration
        copies bypass the cache hierarchy — a device-side copy engine,
        not a cached mutator access — so no read counters move.
        """
        self.nodes[node_of_line(line)].record_migration_write(line)
        for listener in self.write_listeners:
            listener(line)

    def make_core(self, socket_id: int) -> CorePath:
        """Create an access path for a context bound to ``socket_id``."""
        socket = self.sockets[socket_id]
        private = (self.private_cache_factory()
                   if self.private_cache_factory is not None else None)
        return CorePath(self, socket, private)

    def flush_all(self, core_paths: List[CorePath]) -> None:
        """Flush private caches and every LLC out to memory."""
        if FAULTS.active is not None:  # fault hook: die before the drain
            FAULTS.arrive("machine.flush_all", paths=len(core_paths))
        # Span so the drain's write-backs are attributed to the flush
        # phase, not to whichever phase triggered it.
        frame = TRACER.push("machine.flush", paths=len(core_paths))
        try:
            for path in core_paths:
                path.drain()
            for socket in self.sockets:
                for line in socket.llc.flush():
                    self.memory_write(line)
        finally:
            TRACER.pop(frame)
        if SANITIZE.active is not None:
            SANITIZE.machine_op(self, "flush_all")

    def reset_counters(self) -> None:
        for node in self.nodes:
            node.reset_counters()
        self.qpi_crossings = 0
        if SANITIZE.active is not None:
            # Node counters restart from zero while cache stats keep
            # accumulating; re-anchor the conservation-law deltas.
            SANITIZE.rebaseline(self)

    def node_writes(self, node_id: int) -> int:
        """Lines written to ``node_id`` since the last reset."""
        return self.nodes[node_id].write_lines

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"NumaMachine({len(self.sockets)} sockets)"
