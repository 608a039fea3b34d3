"""Planted counter-provenance violation; tests/analyze asserts C002.

The path mirrors ``src/repro/kernel/vm.py`` so the module resolves to
``repro.kernel.vm`` and the default counter table applies.
"""


class Kernel:
    # Every registered Kernel counter except pages_migrated gets an
    # increment here — pages_migrated is the planted C002.
    def note_counters(self) -> None:
        self.mmap_calls += 1
        self.munmap_calls += 1
        self.retag_calls += 1
        self.pages_mapped += 1
        self.pages_unmapped += 1
        self.page_faults += 1
        self.migration_writes += 1
        self.migration_cycles += 1
