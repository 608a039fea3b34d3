"""Tests for the opt-in invariant sanitizer."""

import pytest

from repro.config import PAGE_SIZE
from repro.kernel.vm import Kernel
from repro.machine.wear import StartGapWearLeveler, WearTracker
from repro.sanitize import SANITIZE, InvariantViolation, Sanitizer
from repro.sanitize.invariants import Violation

from tests.conftest import build_test_machine, build_test_vm

BASE = 0x40000


@pytest.fixture
def sanitizer():
    checker = Sanitizer()
    checker.strict = False
    return checker


class TestLifecycle:
    def test_not_installed_by_default(self):
        assert SANITIZE.active is None

    def test_install_uninstall(self):
        try:
            assert SANITIZE.install() is SANITIZE
            assert SANITIZE.active is SANITIZE
        finally:
            SANITIZE.uninstall()
        assert SANITIZE.active is None

    def test_installed_context_disarms_on_error(self):
        with pytest.raises(RuntimeError):
            with SANITIZE.installed():
                assert SANITIZE.active is SANITIZE
                raise RuntimeError("boom")
        assert SANITIZE.active is None

    def test_install_resets_violation_log(self):
        checker = Sanitizer()
        checker.strict = False
        checker._flag("write_conservation", "test", "seeded")
        assert checker.violations
        checker.install(strict=False)
        try:
            assert checker.violations == []
            assert checker.checks_run == 0
        finally:
            checker.uninstall()


class TestMachineLaws:
    def test_clean_machine_passes(self, machine, sanitizer):
        kernel = Kernel(machine)
        process = kernel.create_process()
        kernel.mmap_bind(process, BASE, 4 * PAGE_SIZE, node_id=0)
        thread = process.spawn_thread()
        for i in range(2000):
            thread.access(BASE + (i * 64) % (4 * PAGE_SIZE), 64, True)
        machine.flush_all([thread.core_path])
        sanitizer.check_machine(machine)
        assert sanitizer.violations == []

    def test_lost_write_detected(self, machine, sanitizer):
        kernel = Kernel(machine)
        process = kernel.create_process()
        kernel.mmap_bind(process, BASE, PAGE_SIZE, node_id=1)
        thread = process.spawn_thread()
        sanitizer.check_machine(machine)  # anchor the baseline
        thread.access(BASE, 64, True)
        machine.flush_all([thread.core_path])
        machine.nodes[1].write_lines -= 1  # the drifted counter
        sanitizer.check_machine(machine)
        assert any(v.law == "write_conservation"
                   for v in sanitizer.violations)

    def test_phantom_read_detected(self, machine, sanitizer):
        sanitizer.check_machine(machine)
        machine.nodes[0].read_lines += 7
        sanitizer.check_machine(machine)
        assert any(v.law == "read_conservation"
                   for v in sanitizer.violations)

    def test_strict_mode_raises(self, machine):
        checker = Sanitizer()
        checker.check_machine(machine)
        machine.nodes[0].read_lines += 1
        with pytest.raises(InvariantViolation, match="read_conservation"):
            checker.check_machine(machine)

    def test_rebaseline_absorbs_reset(self, machine, sanitizer):
        kernel = Kernel(machine)
        process = kernel.create_process()
        kernel.mmap_bind(process, BASE, PAGE_SIZE, node_id=0)
        thread = process.spawn_thread()
        thread.access(BASE, 64, True)
        machine.flush_all([thread.core_path])
        sanitizer.check_machine(machine)
        # reset_counters clears node counters but not cache stats; the
        # rebaseline hook keeps the delta law anchored.
        with SANITIZE.installed(strict=False):
            machine.reset_counters()
        sanitizer.rebaseline(machine)
        sanitizer.check_machine(machine)
        assert sanitizer.violations == []

    def test_overfull_cache_set_detected(self, machine, sanitizer):
        llc = machine.sockets[0].llc
        llc._sets[0] = {tag: False for tag in range(llc.assoc + 1)}
        sanitizer.check_machine(machine)
        assert any(v.law == "cache_accounting"
                   for v in sanitizer.violations)


class TestKernelLaws:
    def test_clean_kernel_passes(self, kernel, sanitizer):
        process = kernel.create_process()
        kernel.mmap_bind(process, BASE, 4 * PAGE_SIZE, node_id=0)
        kernel.munmap(process, BASE + 2 * PAGE_SIZE, 2 * PAGE_SIZE)
        sanitizer.check_kernel(kernel)
        assert sanitizer.violations == []

    def test_leaked_frame_detected(self, kernel, sanitizer):
        process = kernel.create_process()
        kernel.mmap_bind(process, BASE, PAGE_SIZE, node_id=0)
        kernel.machine.nodes[0].allocate_frame()  # allocated, never mapped
        sanitizer.check_kernel(kernel)
        assert any(v.law == "frame_conservation"
                   for v in sanitizer.violations)

    def test_page_counter_drift_detected(self, kernel, sanitizer):
        process = kernel.create_process()
        kernel.mmap_bind(process, BASE, PAGE_SIZE, node_id=0)
        kernel.pages_mapped += 1  # drift
        sanitizer.check_kernel(kernel)
        assert any("pages_mapped" in v.detail
                   for v in sanitizer.violations)


class TestRuntimeLaws:
    def test_clean_vm_passes(self, sanitizer):
        vm = build_test_vm()
        mutator = vm.mutator()
        for _ in range(400):
            mutator.alloc(scalar_bytes=64)
        vm.minor_collect()
        sanitizer.check_heap(vm.heap)
        assert sanitizer.violations == []
        vm.shutdown()

    def test_committed_drift_detected(self, sanitizer):
        vm = build_test_vm()
        mutator = vm.mutator()
        for _ in range(400):
            mutator.alloc(scalar_bytes=64)
        vm.heap.committed += vm.heap.chunk_size  # drift
        sanitizer.check_heap(vm.heap)
        assert any(v.law == "freelist_occupancy"
                   for v in sanitizer.violations)
        vm.shutdown()

    def test_gc_hook_fires_when_installed(self):
        vm = build_test_vm()
        with SANITIZE.installed(strict=True) as checker:
            mutator = vm.mutator()
            for _ in range(400):
                mutator.alloc(scalar_bytes=64)
            vm.minor_collect()
            assert checker.checks_run > 0
            assert checker.violations == []
        vm.shutdown()


class TestWearLaws:
    def test_clean_tracker_passes(self, machine, sanitizer):
        tracker = WearTracker(machine, node_id=1)
        sanitizer.watch_wear(tracker)
        line = machine.nodes[1].frame_to_paddr(
            machine.nodes[1].allocate_frame()) >> 6
        for _ in range(10):
            machine.memory_write(line)
        sanitizer.check_wear(tracker)
        assert sanitizer.violations == []

    def test_missed_write_detected(self, machine, sanitizer):
        tracker = WearTracker(machine, node_id=1)
        sanitizer.watch_wear(tracker)
        line = machine.nodes[1].frame_to_paddr(
            machine.nodes[1].allocate_frame()) >> 6
        machine.memory_write(line)
        machine.nodes[1].write_lines += 1  # a write the tracker missed
        sanitizer.check_wear(tracker)
        assert any(v.law == "wear_conservation"
                   for v in sanitizer.violations)

    def test_clean_leveler_passes(self, sanitizer):
        leveler = StartGapWearLeveler(16, gap_write_interval=2)
        for i in range(100):
            leveler.write(i % 16)
        sanitizer.check_leveler(leveler)
        assert sanitizer.violations == []

    def test_uncharged_copy_detected(self, sanitizer):
        leveler = StartGapWearLeveler(16, gap_write_interval=2)
        for i in range(100):
            leveler.write(i % 16)
        leveler.gap_copies -= 1  # the old wrap-move bug
        sanitizer.check_leveler(leveler)
        assert any(v.law == "startgap_accounting"
                   for v in sanitizer.violations)


class TestObservability:
    def test_violations_counted_in_metrics(self, machine):
        from repro.observability.metrics import METRICS

        checker = Sanitizer()
        checker.strict = False
        before = METRICS.value("sanitize.violations.read_conservation")
        checker.check_machine(machine)
        machine.nodes[0].read_lines += 1
        checker.check_machine(machine)
        assert METRICS.value(
            "sanitize.violations.read_conservation") == before + 1

    def test_violation_str_names_law_and_site(self):
        violation = Violation("write_conservation", "kernel.munmap",
                              "off by 3")
        assert "write_conservation" in str(violation)
        assert "kernel.munmap" in str(violation)

    def test_hooks_are_off_by_default(self, kernel):
        # The contract the hot paths rely on: with no sanitizer
        # installed, instrumented sites run zero checks.
        process = kernel.create_process()
        before = SANITIZE.checks_run
        kernel.mmap_bind(process, BASE, PAGE_SIZE, node_id=0)
        kernel.munmap(process, BASE, PAGE_SIZE)
        assert SANITIZE.checks_run == before
