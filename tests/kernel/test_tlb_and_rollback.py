"""Translation after ``munmap`` and ``mmap_bind`` rollback semantics.

The access paths translate every touch with one lookup in the page
table's translation dict, which ``munmap`` and ``mmap_bind`` mutate in
place: a touch after ``munmap`` must fault, and one after a fresh
``mmap_bind`` of the same vpage must reach the new frame.
``mmap_bind`` must be all-or-nothing: a mid-range frame exhaustion may
not leave a half-populated page table or leaked frames.

Every test runs twice: on the default access path and under the
per-line oracle.
"""

from contextlib import nullcontext

import pytest

from repro.config import DEFAULT_LATENCY, DEFAULT_SCALE_CONFIG, PAGE_SIZE
from repro.kernel.pagetable import PageFault
from repro.kernel.vm import Kernel, MBindError
from repro.machine.memory import OutOfPhysicalMemory
from repro.machine.topology import (
    DRAM_NODE,
    PCM_NODE,
    emulation_platform_spec,
)
from repro.sanitize.fuzz import per_line_oracle

BASE = 0x80000


@pytest.fixture(params=("perline", "batched"))
def kernel(request):
    oracle = per_line_oracle() if request.param == "perline" \
        else nullcontext()
    with oracle:
        yield Kernel(emulation_platform_spec(
            DEFAULT_SCALE_CONFIG, DEFAULT_LATENCY).build())


class TestTlbInvalidation:
    def test_unmap_invalidates_cached_translation(self, kernel):
        process = kernel.create_process()
        kernel.mmap_bind(process, BASE, PAGE_SIZE, node_id=DRAM_NODE)
        thread = process.spawn_thread()
        thread.access(BASE, 8, True)
        kernel.munmap(process, BASE, PAGE_SIZE)
        with pytest.raises(PageFault):
            thread.access(BASE, 8, True)
        assert kernel.page_faults == 1

    def test_remap_after_unmap_reaches_the_new_frame(self, kernel):
        process = kernel.create_process()
        kernel.mmap_bind(process, BASE, PAGE_SIZE, node_id=DRAM_NODE)
        thread = process.spawn_thread()
        thread.access(BASE, 64, True)
        kernel.munmap(process, BASE, PAGE_SIZE)
        # Same vpage, different node: a stale translation would keep
        # counting traffic against DRAM.
        kernel.mmap_bind(process, BASE, PAGE_SIZE, node_id=PCM_NODE)
        thread.access(BASE, 64, True)
        kernel.machine.flush_all([thread.core_path])
        assert kernel.machine.nodes[PCM_NODE].write_lines == 1

    def test_block_access_reprimes_tlb_across_pages(self, kernel):
        # A page-crossing block after munmap faults on its first page
        # and leaves every counter where the first block left them.
        process = kernel.create_process()
        kernel.mmap_bind(process, BASE, 4 * PAGE_SIZE, node_id=DRAM_NODE)
        thread = process.spawn_thread()
        thread.access_block(BASE, 4 * PAGE_SIZE, True)
        kernel.munmap(process, BASE, 4 * PAGE_SIZE)
        cycles = thread.cycles
        reads = kernel.machine.nodes[DRAM_NODE].read_lines
        with pytest.raises(PageFault) as info:
            thread.access_block(BASE, 4 * PAGE_SIZE, True)
        assert info.value.vaddr == BASE
        assert thread.cycles == cycles
        assert kernel.machine.nodes[DRAM_NODE].read_lines == reads


class TestMmapRollback:
    def test_exhaustion_mid_range_rolls_back_completely(self, kernel):
        node = kernel.machine.nodes[DRAM_NODE]
        process = kernel.create_process()
        free_pages = node.total_frames
        # Leave 3 free frames, then ask for 8: the 4th allocation fails.
        kernel.mmap_bind(process, BASE, (free_pages - 3) * PAGE_SIZE,
                         node_id=DRAM_NODE)
        mapped_before = process.page_table.mapped_pages
        frames_before = node.frames_in_use
        pages_counter = kernel.pages_mapped
        calls_before = kernel.mmap_calls
        with pytest.raises(OutOfPhysicalMemory):
            kernel.mmap_bind(process, 0x90000000, 8 * PAGE_SIZE,
                             node_id=DRAM_NODE, tag="doomed")
        assert process.page_table.mapped_pages == mapped_before
        assert node.frames_in_use == frames_before
        assert kernel.pages_mapped == pages_counter
        # The failed attempt still counts as a syscall.
        assert kernel.mmap_calls == calls_before + 1

    def test_rolled_back_frames_are_reusable(self, kernel):
        node = kernel.machine.nodes[DRAM_NODE]
        process = kernel.create_process()
        kernel.mmap_bind(process, BASE, (node.total_frames - 3) * PAGE_SIZE,
                         node_id=DRAM_NODE)
        with pytest.raises(OutOfPhysicalMemory):
            kernel.mmap_bind(process, 0x90000000, 8 * PAGE_SIZE,
                             node_id=DRAM_NODE)
        # The 3 surviving frames must be allocatable again.
        kernel.mmap_bind(process, 0x90000000, 3 * PAGE_SIZE,
                         node_id=DRAM_NODE)
        assert node.frames_in_use == node.total_frames

    def test_rollback_keeps_pre_existing_mappings_usable(self, kernel):
        node = kernel.machine.nodes[DRAM_NODE]
        process = kernel.create_process()
        thread = process.spawn_thread()
        kernel.mmap_bind(process, BASE, (node.total_frames - 1) * PAGE_SIZE,
                         node_id=DRAM_NODE)
        with pytest.raises(OutOfPhysicalMemory):
            kernel.mmap_bind(process, 0x90000000, 2 * PAGE_SIZE,
                             node_id=DRAM_NODE)
        thread.access(BASE, 8, True)  # earlier mapping still live
        assert kernel.page_faults == 0


class TestOverlapValidation:
    """Remapping a live page must fail before any side effect.

    The old rollback unmapped *whatever was mapped* in the failed
    range, so an overlapping ``mmap_bind`` destroyed the pre-existing
    mapping and leaked its frame (found by the differential fuzzer's
    hostile-op mix via the frame-conservation law).
    """

    def test_overlap_raises_mbind_error(self, kernel):
        process = kernel.create_process()
        kernel.mmap_bind(process, BASE, 2 * PAGE_SIZE, node_id=DRAM_NODE)
        with pytest.raises(MBindError):
            kernel.mmap_bind(process, BASE + PAGE_SIZE, 2 * PAGE_SIZE,
                             node_id=DRAM_NODE)

    def test_overlap_leaves_existing_mapping_intact(self, kernel):
        node = kernel.machine.nodes[DRAM_NODE]
        process = kernel.create_process()
        thread = process.spawn_thread()
        kernel.mmap_bind(process, BASE, 2 * PAGE_SIZE, node_id=DRAM_NODE)
        frames_before = node.frames_in_use
        mapped_before = kernel.pages_mapped
        with pytest.raises(MBindError):
            kernel.mmap_bind(process, BASE, 4 * PAGE_SIZE,
                             node_id=PCM_NODE)
        # No frame allocated or leaked, no page counter movement, and
        # the original mapping still serves accesses.
        assert node.frames_in_use == frames_before
        assert kernel.machine.nodes[PCM_NODE].frames_in_use == 0
        assert kernel.pages_mapped == mapped_before
        assert process.page_table.mapped_pages == 2
        thread.access(BASE, 8, True)
        assert kernel.page_faults == 0

    def test_overlap_still_counts_the_syscall(self, kernel):
        process = kernel.create_process()
        kernel.mmap_bind(process, BASE, PAGE_SIZE, node_id=DRAM_NODE)
        calls_before = kernel.mmap_calls
        with pytest.raises(MBindError):
            kernel.mmap_bind(process, BASE, PAGE_SIZE, node_id=DRAM_NODE)
        assert kernel.mmap_calls == calls_before + 1


class TestAtomicMunmap:
    """``munmap`` must be all-or-nothing across the requested range.

    The old implementation freed frames page by page and raised on the
    first unmapped page, leaving earlier pages gone but
    ``pages_unmapped``/``munmap_calls`` never updated — counter drift
    the sanitizer's page-conservation law flags immediately.
    """

    def test_unmapped_tail_frees_nothing(self, kernel):
        node = kernel.machine.nodes[DRAM_NODE]
        process = kernel.create_process()
        thread = process.spawn_thread()
        kernel.mmap_bind(process, BASE, 2 * PAGE_SIZE, node_id=DRAM_NODE)
        frames_before = node.frames_in_use
        unmapped_before = kernel.pages_unmapped
        with pytest.raises(PageFault):
            kernel.munmap(process, BASE, 3 * PAGE_SIZE)  # page 3 unmapped
        assert node.frames_in_use == frames_before
        assert process.page_table.mapped_pages == 2
        assert kernel.pages_unmapped == unmapped_before
        thread.access(BASE, 8, True)  # both pages still live
        assert kernel.page_faults == 0

    def test_failed_munmap_still_counts_the_syscall(self, kernel):
        process = kernel.create_process()
        calls_before = kernel.munmap_calls
        with pytest.raises(PageFault):
            kernel.munmap(process, BASE, PAGE_SIZE)
        assert kernel.munmap_calls == calls_before + 1

    def test_successful_munmap_counts_pages(self, kernel):
        process = kernel.create_process()
        kernel.mmap_bind(process, BASE, 3 * PAGE_SIZE, node_id=DRAM_NODE)
        kernel.munmap(process, BASE, 3 * PAGE_SIZE)
        assert kernel.pages_unmapped == 3
        assert kernel.pages_mapped - kernel.pages_unmapped == 0

    def test_reclaim_counts_unmapped_pages(self, kernel):
        process = kernel.create_process()
        kernel.mmap_bind(process, BASE, 4 * PAGE_SIZE, node_id=DRAM_NODE)
        process.exit()
        assert kernel.pages_unmapped == 4
        assert kernel.machine.nodes[DRAM_NODE].frames_in_use == 0
