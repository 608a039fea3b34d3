"""Write-back accounting invariants for the cache hierarchy.

The paper's headline metric is PCM write *lines*, so the one thing the
cache model must never do is write a dirty line back twice (or zero
times).  These tests pin that down through the machine's write-listener
hook: every resident dirty line reaches memory exactly once at flush,
reads produce no write-backs at all, and draining private caches before
a full flush changes nothing.

Every test runs twice, on the default access path (the fused
``access_run`` loops) and under the per-line oracle: the invariants are
properties of the architecture, not of any one implementation.
"""

from contextlib import nullcontext

import pytest

from repro.config import DEFAULT_LATENCY, DEFAULT_SCALE_CONFIG, PAGE_SIZE
from repro.kernel.pagetable import PageFault
from repro.kernel.vm import Kernel
from repro.machine.topology import (
    DRAM_NODE,
    PCM_NODE,
    emulation_platform_spec,
)
from repro.sanitize.fuzz import per_line_oracle

BASE = 0x40000


@pytest.fixture(params=("perline", "batched"))
def access_path(request):
    """Run the test under the per-line oracle or on the default path."""
    oracle = per_line_oracle() if request.param == "perline" \
        else nullcontext()
    with oracle:
        yield request.param


def _thread(pages=4, node=DRAM_NODE):
    machine = emulation_platform_spec(
        DEFAULT_SCALE_CONFIG, DEFAULT_LATENCY).build()
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
    def test_each_resident_dirty_line_flushes_exactly_once(self, access_path):
        machine, thread = _thread()
        # 32 dirty lines: fits the 64-line private cache, no evictions.
        for index in range(32):
            thread.access(BASE + index * 64, 64, True)
        counts = _count_writebacks(machine)
        machine.flush_all([thread.core_path])
        assert len(counts) == 32
        assert set(counts.values()) == {1}
        assert machine.nodes[DRAM_NODE].write_lines == 32

    def test_clean_lines_never_write_back(self, access_path):
        machine, thread = _thread()
        for index in range(16):
            thread.access(BASE + index * 64, 64, True)
        for index in range(16, 48):  # reads only
            thread.access(BASE + index * 64, 64, False)
        counts = _count_writebacks(machine)
        machine.flush_all([thread.core_path])
        assert len(counts) == 16
        assert set(counts.values()) == {1}

    def test_drain_then_flush_does_not_double_count(self, access_path):
        machine, thread = _thread()
        for index in range(32):
            thread.access(BASE + index * 64, 64, True)
        counts = _count_writebacks(machine)
        thread.core_path.drain()  # private -> LLC, nothing to memory yet
        assert counts == {}
        machine.flush_all([thread.core_path])
        assert len(counts) == 32
        assert set(counts.values()) == {1}

    def test_second_flush_is_a_no_op(self, access_path):
        machine, thread = _thread()
        for index in range(32):
            thread.access(BASE + index * 64, 64, True)
        machine.flush_all([thread.core_path])
        counts = _count_writebacks(machine)
        machine.flush_all([thread.core_path])
        assert counts == {}

    def test_rewritten_line_still_flushes_once(self, access_path):
        machine, thread = _thread()
        for _ in range(5):
            for index in range(32):
                thread.access(BASE + index * 64, 64, True)
        counts = _count_writebacks(machine)
        machine.flush_all([thread.core_path])
        assert set(counts.values()) == {1}
        assert len(counts) == 32


class TestMidBlockFaultParity:
    """A block that faults mid-way matches the per-line oracle's state.

    The access path must keep the cache effects of the runs before the
    fault (the per-line walk has already touched the caches with them)
    and discard the faulting block's cycles.
    """

    def _partial_block(self):
        machine, thread = _thread(pages=1, node=PCM_NODE)
        # Block spans the mapped page and the unmapped one after it.
        with pytest.raises(PageFault):
            thread.access(BASE + PAGE_SIZE - 256, 512, True)
        machine.flush_all([thread.core_path])
        node = machine.nodes[PCM_NODE]
        return (node.read_lines, node.write_lines, thread.cycles,
                thread.process.kernel.page_faults)

    def test_mid_block_fault_state_matches_per_line(self, access_path):
        state = self._partial_block()
        with per_line_oracle():
            assert state == self._partial_block()
