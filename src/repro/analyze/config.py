"""The policy ``repro lint`` enforces, kept here and nowhere else.

Policy pieces:

* **layers** — dotted package prefix -> rank.  A module may only import
  modules of equal or lower rank (rule ``L001``); longest-prefix match
  decides a module's rank.
* **crosscutting / hot** — the observability/faults/sanitize packages
  may be imported from anywhere *except* the hot packages (``L002``);
  inside hot packages every such import must be a baselined, justified
  zero-overhead hook.
* **counters** — registered counter attribute -> owning class names.
  Augmented/plain assignment to a registered counter outside its owning
  class must come from a declared mutator (``C001``).
* **counter_mutators** — ``module::Qual.name`` functions allowed to
  mutate foreign counters (the access path's fused loops).
* **hook_sites** — state-mutating operations that must carry their
  FAULTS / SANITIZE hook pair (``H001``).

Those six are the :class:`LintConfig` fields checkers read and tests
substitute.  What the CLI scans is fixed by module constants:
:data:`PATHS` and :data:`BASELINE` (overridden by ``repro lint``'s
positional ``PATH`` arguments and ``--baseline``), and the extra
:data:`TEST_PATHS` linted with the restricted :data:`TEST_SELECT` rule
set, minus :data:`EXCLUDE`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple


#: Import-DAG ranks (longest prefix wins).  machine < kernel < runtime
#: < native < core < workloads < harness < experiments < top-level.
DEFAULT_LAYERS: Dict[str, int] = {
    "repro": 70,              # cli, __init__, __main__
    "repro.analyze": 70,
    "repro.config": 0,
    "repro.observability": 5,
    "repro.faults": 8,
    "repro.machine": 10,
    "repro.kernel": 20,
    "repro.runtime": 30,
    "repro.native": 35,
    "repro.sanitize": 38,
    "repro.core": 40,
    "repro.workloads": 45,
    "repro.harness": 50,
    "repro.experiments": 60,
}

#: Cross-cutting packages: importable from anywhere except hot packages.
DEFAULT_CROSSCUTTING: Tuple[str, ...] = (
    "repro.observability", "repro.faults", "repro.sanitize",
)

#: Hot-path packages: per-access simulation code where a stray import
#: of tooling can silently change counters or cost cycles.
DEFAULT_HOT: Tuple[str, ...] = (
    "repro.machine", "repro.kernel", "repro.runtime", "repro.native",
)

#: Registered counter attribute -> class names allowed to mutate it.
DEFAULT_COUNTERS: Dict[str, List[str]] = {
    # MemoryNode traffic counters (the "PCM write count" ground truth).
    "write_lines": ["MemoryNode"],
    "read_lines": ["MemoryNode"],
    "writes_by_tag": ["MemoryNode"],
    "migration_write_lines": ["MemoryNode"],
    # Cache accounting (CacheLevel owns its CacheStats).
    "hits": ["CacheStats", "CacheLevel"],
    "misses": ["CacheStats", "CacheLevel"],
    "evictions": ["CacheStats", "CacheLevel"],
    "dirty_evictions": ["CacheStats", "CacheLevel"],
    "flushed_dirty": ["CacheLevel"],
    # Machine-level traffic.
    "qpi_crossings": ["NumaMachine"],
    # Kernel syscall/fault counters.
    "mmap_calls": ["Kernel"],
    "munmap_calls": ["Kernel"],
    "retag_calls": ["Kernel"],
    "pages_mapped": ["Kernel"],
    "pages_unmapped": ["Kernel"],
    "page_faults": ["Kernel"],
    "pages_migrated": ["Kernel"],
    "migration_writes": ["Kernel"],
    "migration_cycles": ["Kernel"],
    # Wear family.
    "total_writes": ["WearTracker", "StartGapWearLeveler"],
    "gap_moves": ["StartGapWearLeveler"],
    "gap_copies": ["StartGapWearLeveler"],
    "writes_since_move": ["StartGapWearLeveler"],
    "physical_wear": ["StartGapWearLeveler"],
    "wear": ["WearTracker"],
}

#: Functions allowed to mutate foreign registered counters: the access
#: path's fused loops (and the per-line oracle's walk), where the
#: method-call discipline is deliberately traded away (counter-identity
#: is proven by the differential fuzzer instead).
DEFAULT_COUNTER_MUTATORS: Tuple[str, ...] = (
    "repro.machine.numa::CorePath.access_line",
    "repro.machine.numa::CorePath.access_run",
    "repro.kernel.process::SimThread.access",
)

#: State-mutating operations that must carry their hook pair.
#: Each entry: (module, qualname, required hook kinds).
DEFAULT_HOOK_SITES: Tuple[Tuple[str, str, Tuple[str, ...]], ...] = (
    ("repro.kernel.vm", "Kernel.mmap_bind", ("faults", "sanitize", "trace")),
    ("repro.kernel.vm", "Kernel.munmap", ("faults", "sanitize")),
    ("repro.kernel.vm", "Kernel.migrate_page",
     ("faults", "sanitize", "trace")),
    ("repro.kernel.vm", "Kernel.placement_tick", ("sanitize",)),
    ("repro.kernel.vm", "Kernel.reclaim_process", ("faults", "sanitize")),
    ("repro.runtime.heap", "HybridHeap.may_commit", ("faults",)),
    ("repro.runtime.heap", "HybridHeap.note_chunk_acquired", ("sanitize",)),
    ("repro.runtime.jvm", "JavaVM.minor_collect",
     ("faults", "sanitize", "trace")),
    ("repro.runtime.jvm", "JavaVM.full_collect",
     ("faults", "sanitize", "trace")),
    ("repro.machine.numa", "NumaMachine.flush_all",
     ("faults", "sanitize", "trace")),
    ("repro.core.collectors.base", "Collector.minor_collect", ("trace",)),
    ("repro.core.collectors.base", "Collector.mark_and_sweep", ("trace",)),
    ("repro.core.monitor", "WriteRateMonitor.sample", ("faults", "trace")),
    ("repro.core.platform", "HybridMemoryPlatform.run",
     ("sanitize", "trace")),
)

#: Trees ``repro lint`` scans when given no ``PATH`` argument.
PATHS: Tuple[str, ...] = ("src/repro",)

#: Baseline of justified suppressions, unless ``--baseline`` names one.
BASELINE = "lint-baseline.json"

#: Extra trees a default-path run lints with the ``TEST_SELECT`` rules.
TEST_PATHS: Tuple[str, ...] = ("tests", "benchmarks")

#: Rules applied to the test trees (determinism family only — layering
#: and counter discipline do not apply to test code).
TEST_SELECT: Tuple[str, ...] = ("D001", "D002", "D003", "D004")

#: Path prefixes excluded from the test-tree sweep: the lint fixtures
#: are planted violations and must not be re-reported.
EXCLUDE: Tuple[str, ...] = ("tests/analyze/fixtures",)


@dataclass
class LintConfig:
    """Effective policy the engine and checkers consult."""

    layers: Dict[str, int] = field(
        default_factory=lambda: dict(DEFAULT_LAYERS))
    crosscutting: List[str] = field(
        default_factory=lambda: list(DEFAULT_CROSSCUTTING))
    hot: List[str] = field(default_factory=lambda: list(DEFAULT_HOT))
    counters: Dict[str, List[str]] = field(
        default_factory=lambda: {k: list(v)
                                 for k, v in DEFAULT_COUNTERS.items()})
    counter_mutators: List[str] = field(
        default_factory=lambda: list(DEFAULT_COUNTER_MUTATORS))
    hook_sites: List[Tuple[str, str, Tuple[str, ...]]] = field(
        default_factory=lambda: [(m, q, tuple(h))
                                 for m, q, h in DEFAULT_HOOK_SITES])

    # ------------------------------------------------------------------
    # Lookup helpers
    # ------------------------------------------------------------------
    def rank_of(self, module: str) -> Optional[int]:
        """Layer rank by longest prefix match; None if unranked."""
        best_len = -1
        best_rank: Optional[int] = None
        for prefix, rank in self.layers.items():
            if module == prefix or module.startswith(prefix + "."):
                if len(prefix) > best_len:
                    best_len = len(prefix)
                    best_rank = rank
        return best_rank

    def _matches_any(self, module: str, prefixes: List[str]) -> bool:
        return any(module == p or module.startswith(p + ".")
                   for p in prefixes)

    def is_crosscutting(self, module: str) -> bool:
        return self._matches_any(module, self.crosscutting)

    def is_hot(self, module: str) -> bool:
        return self._matches_any(module, self.hot)

    def is_counter_mutator(self, module: str, qualname: str) -> bool:
        return f"{module}::{qualname}" in self.counter_mutators
