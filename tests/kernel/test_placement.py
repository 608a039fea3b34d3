"""Tests for the placement-policy layer (static/first-touch/interleave/
migrate) and how a kernel picks its policy."""

import pytest

from repro.config import PAGE_SHIFT, PAGE_SIZE
from repro.kernel.pagetable import PageFault
from repro.kernel.placement import PLACEMENT_NAMES, MigrantStorePlacement
from repro.kernel.process import Process
from repro.kernel.vm import Kernel
from repro.machine.topology import DRAM_NODE, PCM_NODE

BASE = 0x40000
BASE_PAGE = BASE >> PAGE_SHIFT


def make_migrate_process(kernel, **kwargs):
    """A process driven by a parameterised MigrantStore policy.

    Mirrors what ``create_process`` does for the stock policy, but lets
    tests pin the budget/thresholds/cap.
    """
    policy = MigrantStorePlacement(kernel, **kwargs)
    process = Process(kernel._next_pid, kernel, 0, placement=policy)
    kernel._next_pid += 1
    kernel.processes.append(process)
    kernel._tick_policies.append(policy)
    kernel.machine.write_listeners.append(policy.on_write)
    return process, policy


def write_lines(process, vaddr, count):
    """Dirty ``count`` distinct lines of the page at ``vaddr`` and
    flush them to memory so the write stream observes them."""
    thread = process.spawn_thread()
    for index in range(count):
        thread.access(vaddr + 64 * index, 8, True)
    process.kernel.machine.flush_all([thread.core_path])


class TestResolution:
    def test_default_is_static(self, machine):
        from repro.core.platform import HybridMemoryPlatform

        assert HybridMemoryPlatform().placement == "static"
        assert Kernel(machine).placement == "static"

    def test_unknown_name_rejected(self, machine):
        with pytest.raises(ValueError, match="unknown placement") as info:
            Kernel(machine, placement="numa-balancing")
        for name in PLACEMENT_NAMES:
            assert name in str(info.value)

    def test_registry_order(self):
        assert PLACEMENT_NAMES == ("static", "first-touch",
                                   "interleave", "migrate")

    def test_kernel_resolves_at_construction(self, machine):
        assert Kernel(machine).placement == "static"
        assert Kernel(machine, placement="migrate").placement == "migrate"

    def test_per_process_override(self, kernel):
        process = kernel.create_process(placement="interleave")
        assert process.placement.name == "interleave"
        assert kernel.create_process().placement.name == "static"


class TestStaticEagerIdentity:
    """The default policy must keep the pre-placement behaviour exactly:
    eager frames from the requested node, zero faults ever."""

    def test_eager_backing_and_zero_faults(self, kernel):
        process = kernel.create_process()
        kernel.mmap_bind(process, BASE, 2 * PAGE_SIZE, node_id=1)
        assert kernel.pages_mapped == 2
        assert kernel.machine.nodes[1].frames_in_use == 2
        thread = process.spawn_thread()
        thread.access(BASE, 8, True)
        thread.access(BASE + PAGE_SIZE, 8, False)
        assert kernel.page_faults == 0


class TestFirstTouch:
    def test_bind_only_reserves(self, kernel):
        process = kernel.create_process(placement="first-touch")
        kernel.mmap_bind(process, BASE, 4 * PAGE_SIZE, node_id=0)
        assert kernel.mmap_calls == 1
        assert kernel.pages_mapped == 0
        assert kernel.machine.nodes[0].frames_in_use == 0
        assert kernel.machine.nodes[1].frames_in_use == 0
        for vpage in range(BASE_PAGE, BASE_PAGE + 4):
            assert process.page_table.is_reserved(vpage)
            assert not process.page_table.is_mapped(vpage)

    def test_first_touch_backs_on_touching_socket(self, kernel):
        # The GC asked for DRAM; the OS never hears the hint and backs
        # the page local to the toucher on socket 1 instead.
        process = kernel.create_process(affinity_socket=1,
                                        placement="first-touch")
        kernel.mmap_bind(process, BASE, PAGE_SIZE, node_id=0)
        thread = process.spawn_thread()
        thread.access(BASE, 8, True)
        node_id, _frame = process.page_table.entry(BASE_PAGE)
        assert node_id == 1
        assert kernel.page_faults == 1
        assert kernel.pages_mapped == 1

    def test_faults_count_real_first_touches_only(self, kernel):
        process = kernel.create_process(placement="first-touch")
        kernel.mmap_bind(process, BASE, 4 * PAGE_SIZE, node_id=0)
        thread = process.spawn_thread()
        thread.access(BASE, 8, True)
        thread.access(BASE + 32, 8, True)   # same page: translation cached
        thread.access(BASE + PAGE_SIZE, 8, False)
        assert kernel.page_faults == 2
        assert kernel.pages_mapped == 2     # two pages never touched

    def test_falls_back_when_local_node_full(self, kernel):
        node0 = kernel.machine.nodes[0]
        while node0.frames_in_use < node0.total_frames:
            node0.allocate_frame()
        process = kernel.create_process(affinity_socket=0,
                                        placement="first-touch")
        kernel.mmap_bind(process, BASE, PAGE_SIZE, node_id=0)
        process.spawn_thread().access(BASE, 8, True)
        node_id, _frame = process.page_table.entry(BASE_PAGE)
        assert node_id == 1

    def test_reservation_carries_tag(self, kernel):
        process = kernel.create_process(affinity_socket=1,
                                        placement="first-touch")
        kernel.mmap_bind(process, BASE, PAGE_SIZE, node_id=0,
                         tag="nursery")
        write_lines(process, BASE, 1)
        assert kernel.machine.nodes[1].writes_by_tag == {"nursery": 1}

    def test_untouched_reservation_unmaps_cleanly(self, kernel):
        process = kernel.create_process(placement="first-touch")
        kernel.mmap_bind(process, BASE, 2 * PAGE_SIZE, node_id=0)
        kernel.munmap(process, BASE, 2 * PAGE_SIZE)
        assert kernel.pages_unmapped == 0   # nothing was ever backed
        assert not process.page_table.is_reserved(BASE_PAGE)

    def test_unreserved_address_still_faults(self, kernel):
        process = kernel.create_process(placement="first-touch")
        with pytest.raises(PageFault):
            process.spawn_thread().access(BASE, 8, True)


class TestInterleave:
    def test_round_robin_across_nodes(self, kernel):
        process = kernel.create_process(placement="interleave")
        kernel.mmap_bind(process, BASE, 4 * PAGE_SIZE, node_id=0)
        nodes = [process.page_table.entry(vpage)[0]
                 for vpage in range(BASE_PAGE, BASE_PAGE + 4)]
        assert nodes == [0, 1, 0, 1]

    def test_cursor_continues_across_binds(self, kernel):
        process = kernel.create_process(placement="interleave")
        kernel.mmap_bind(process, BASE, PAGE_SIZE, node_id=0)
        kernel.mmap_bind(process, BASE + 0x10000, PAGE_SIZE, node_id=0)
        first = process.page_table.entry(BASE_PAGE)[0]
        second = process.page_table.entry((BASE + 0x10000) >> PAGE_SHIFT)[0]
        assert (first, second) == (0, 1)

    def test_cursor_is_per_process(self, kernel):
        first = kernel.create_process(placement="interleave")
        second = kernel.create_process(placement="interleave")
        kernel.mmap_bind(first, BASE, PAGE_SIZE, node_id=0)
        kernel.mmap_bind(second, BASE, PAGE_SIZE, node_id=0)
        assert first.page_table.entry(BASE_PAGE)[0] == 0
        assert second.page_table.entry(BASE_PAGE)[0] == 0


class TestMigrantStore:
    def test_everything_lands_on_pcm_first(self, kernel):
        process = kernel.create_process(placement="migrate")
        kernel.mmap_bind(process, BASE, 2 * PAGE_SIZE, node_id=DRAM_NODE)
        for vpage in range(BASE_PAGE, BASE_PAGE + 2):
            assert process.page_table.entry(vpage)[0] == PCM_NODE

    def test_hot_page_promoted_at_tick(self, kernel):
        process = kernel.create_process(placement="migrate")
        kernel.mmap_bind(process, BASE, PAGE_SIZE, node_id=DRAM_NODE)
        # 8 dirty lines, alpha 0.5 -> score 4.0, the promote threshold.
        write_lines(process, BASE, 8)
        kernel.placement_tick()
        assert process.page_table.entry(BASE_PAGE)[0] == DRAM_NODE
        assert kernel.pages_migrated == 1

    def test_cold_page_stays_put(self, kernel):
        process = kernel.create_process(placement="migrate")
        kernel.mmap_bind(process, BASE, PAGE_SIZE, node_id=DRAM_NODE)
        write_lines(process, BASE, 4)   # score 2.0 < promote threshold
        kernel.placement_tick()
        assert process.page_table.entry(BASE_PAGE)[0] == PCM_NODE
        assert kernel.pages_migrated == 0

    def test_cooled_resident_demoted(self, kernel):
        process = kernel.create_process(placement="migrate")
        kernel.mmap_bind(process, BASE, PAGE_SIZE, node_id=DRAM_NODE)
        write_lines(process, BASE, 8)
        kernel.placement_tick()        # promoted at score 4.0
        kernel.placement_tick()        # 2.0 — still resident
        kernel.placement_tick()        # 1.0 — hysteresis holds it
        assert process.page_table.entry(BASE_PAGE)[0] == DRAM_NODE
        kernel.placement_tick()        # 0.5 < demote threshold
        assert process.page_table.entry(BASE_PAGE)[0] == PCM_NODE
        assert kernel.pages_migrated == 2

    def test_dram_budget_bounds_residency(self, kernel):
        process, _policy = make_migrate_process(kernel,
                                                dram_budget_pages=1)
        kernel.mmap_bind(process, BASE, 2 * PAGE_SIZE, node_id=DRAM_NODE)
        write_lines(process, BASE, 16)
        write_lines(process, BASE + PAGE_SIZE, 16)
        kernel.placement_tick()
        nodes = [process.page_table.entry(vpage)[0]
                 for vpage in range(BASE_PAGE, BASE_PAGE + 2)]
        assert nodes.count(DRAM_NODE) == 1
        assert kernel.pages_migrated == 1

    def test_ties_break_by_lowest_vpage(self, kernel):
        process, _policy = make_migrate_process(kernel,
                                                dram_budget_pages=1)
        kernel.mmap_bind(process, BASE, 2 * PAGE_SIZE, node_id=DRAM_NODE)
        write_lines(process, BASE + PAGE_SIZE, 16)  # written first...
        write_lines(process, BASE, 16)
        kernel.placement_tick()
        # ...but equal scores promote the lower vpage, not arrival order.
        assert process.page_table.entry(BASE_PAGE)[0] == DRAM_NODE
        assert process.page_table.entry(BASE_PAGE + 1)[0] == PCM_NODE

    def test_per_tick_migration_cap(self, kernel):
        process, _policy = make_migrate_process(
            kernel, max_migrations_per_tick=2)
        kernel.mmap_bind(process, BASE, 3 * PAGE_SIZE, node_id=DRAM_NODE)
        for index in range(3):
            write_lines(process, BASE + index * PAGE_SIZE, 16)
        kernel.placement_tick()
        assert kernel.pages_migrated == 2
        kernel.placement_tick()        # the third (score 4.0) follows
        assert kernel.pages_migrated == 3

    def test_migration_copies_do_not_feed_hotness(self, kernel):
        process, policy = make_migrate_process(kernel)
        kernel.mmap_bind(process, BASE, PAGE_SIZE, node_id=DRAM_NODE)
        write_lines(process, BASE, 8)
        kernel.placement_tick()
        assert process.page_table.entry(BASE_PAGE)[0] == DRAM_NODE
        # The 64 copy lines fired the write listeners *after* the epoch
        # fold and before note_mapped; none may count as page heat.
        assert BASE_PAGE not in policy._epoch_writes

    def test_unmap_drops_tracking_state(self, kernel):
        process, policy = make_migrate_process(kernel)
        kernel.mmap_bind(process, BASE, PAGE_SIZE, node_id=DRAM_NODE)
        write_lines(process, BASE, 8)
        kernel.munmap(process, BASE, PAGE_SIZE)
        kernel.placement_tick()
        assert kernel.pages_migrated == 0
        assert not policy._page_node
        assert not policy._by_phys

    def test_invalid_parameters_rejected(self, kernel):
        with pytest.raises(ValueError):
            MigrantStorePlacement(kernel, dram_budget_pages=0)
        with pytest.raises(ValueError):
            MigrantStorePlacement(kernel, ewma_alpha=0.0)
        with pytest.raises(ValueError):
            MigrantStorePlacement(kernel, promote_threshold=1.0,
                                  demote_threshold=2.0)

    def test_reclaim_retires_policy(self, kernel):
        process, policy = make_migrate_process(kernel)
        kernel.mmap_bind(process, BASE, PAGE_SIZE, node_id=DRAM_NODE)
        process.exit()
        assert policy not in kernel._tick_policies
        assert policy.on_write not in kernel.machine.write_listeners
