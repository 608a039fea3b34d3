"""Write-back accounting invariants for the cache hierarchy.

The paper's headline metric is PCM write *lines*, so the one thing the
cache model must never do is write a dirty line back twice (or zero
times).  These tests pin that down through the machine's write-listener
hook: every resident dirty line reaches memory exactly once at flush,
reads produce no write-backs at all, and draining private caches before
a full flush changes nothing.

Every test runs once per access engine (the per-line oracle and the
batched fused loops): the invariants are properties of the
architecture, not of any one implementation.
"""

import pytest

from repro.config import DEFAULT_LATENCY, DEFAULT_SCALE_CONFIG, PAGE_SIZE
from repro.kernel.pagetable import PageFault
from repro.kernel.vm import Kernel
from repro.machine.topology import (
    DRAM_NODE,
    PCM_NODE,
    emulation_platform_spec,
)

BASE = 0x40000

ENGINES = ("perline", "batched")


@pytest.fixture(params=ENGINES)
def engine(request):
    return request.param


def _thread(pages=4, node=DRAM_NODE, engine=None):
    machine = emulation_platform_spec(
        DEFAULT_SCALE_CONFIG, DEFAULT_LATENCY).build(engine=engine)
    kernel = Kernel(machine)
    process = kernel.create_process(affinity_socket=0)
    kernel.mmap_bind(process, BASE, pages * PAGE_SIZE, node_id=node)
    return machine, process.spawn_thread()


def _count_writebacks(machine):
    counts = {}

    def listener(line):
        counts[line] = counts.get(line, 0) + 1

    machine.write_listeners.append(listener)
    return counts


class TestFlushExactlyOnce:
    def test_each_resident_dirty_line_flushes_exactly_once(self, engine):
        machine, thread = _thread(engine=engine)
        # 32 dirty lines: fits the 64-line private cache, no evictions.
        for index in range(32):
            thread.access(BASE + index * 64, 64, True)
        counts = _count_writebacks(machine)
        machine.flush_all([thread.core_path])
        assert len(counts) == 32
        assert set(counts.values()) == {1}
        assert machine.nodes[DRAM_NODE].write_lines == 32

    def test_clean_lines_never_write_back(self, engine):
        machine, thread = _thread(engine=engine)
        for index in range(16):
            thread.access(BASE + index * 64, 64, True)
        for index in range(16, 48):  # reads only
            thread.access(BASE + index * 64, 64, False)
        counts = _count_writebacks(machine)
        machine.flush_all([thread.core_path])
        assert len(counts) == 16
        assert set(counts.values()) == {1}

    def test_drain_then_flush_does_not_double_count(self, engine):
        machine, thread = _thread(engine=engine)
        for index in range(32):
            thread.access(BASE + index * 64, 64, True)
        counts = _count_writebacks(machine)
        thread.core_path.drain()  # private -> LLC, nothing to memory yet
        assert counts == {}
        machine.flush_all([thread.core_path])
        assert len(counts) == 32
        assert set(counts.values()) == {1}

    def test_second_flush_is_a_no_op(self, engine):
        machine, thread = _thread(engine=engine)
        for index in range(32):
            thread.access(BASE + index * 64, 64, True)
        machine.flush_all([thread.core_path])
        counts = _count_writebacks(machine)
        machine.flush_all([thread.core_path])
        assert counts == {}

    def test_rewritten_line_still_flushes_once(self, engine):
        machine, thread = _thread(engine=engine)
        for _ in range(5):
            for index in range(32):
                thread.access(BASE + index * 64, 64, True)
        counts = _count_writebacks(machine)
        machine.flush_all([thread.core_path])
        assert set(counts.values()) == {1}
        assert len(counts) == 32


class TestMidBlockFaultParity:
    """A block that faults mid-way matches the per-line engine state.

    The batched engine must keep the cache effects of the runs before
    the fault (the per-line path has already touched the caches with
    them) and discard the faulting block's cycles.
    """

    def _partial_block(self, engine):
        machine, thread = _thread(pages=1, node=PCM_NODE, engine=engine)
        # Block spans the mapped page and the unmapped one after it.
        with pytest.raises(PageFault):
            thread.access(BASE + PAGE_SIZE - 256, 512, True)
        machine.flush_all([thread.core_path])
        node = machine.nodes[PCM_NODE]
        return (node.read_lines, node.write_lines, thread.cycles,
                thread.process.kernel.page_faults)

    def test_mid_block_fault_state_matches_per_line(self, engine):
        assert self._partial_block(engine) == self._partial_block("perline")
