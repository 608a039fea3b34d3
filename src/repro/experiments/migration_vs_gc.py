"""Extension: OS-directed page migration vs GC-directed placement.

The paper's central argument (Section II, revisited in Section VI) is
that hardware- or OS-directed hybrid-memory management — first-touch
placement, interleaving, or MigrantStore-style hot-page migration into
a DRAM cache — observes writes only at page granularity and after the
fact, while the garbage collector *knows* which objects are young,
highly mutated, or about to die, and can place them on DRAM up front.

This experiment makes that argument quantitative inside the emulator:
the same benchmarks run under the kernel's OS placement policies
(``first-touch``, ``interleave``, ``migrate``; see
:mod:`repro.kernel.placement`) with a placement-agnostic collector,
and under GC-directed placement (the Kingsguard collectors of Figure 7
with static binding).  Reported per configuration: PCM write lines,
PCM write rate, the implied worst-case PCM lifetime, and — for the
migrate policy — the migration overhead the OS paid (pages moved, copy
lines charged to PCM wear, copy cycles) that GC-directed placement
avoids entirely.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.core.lifetime import pcm_lifetime_years, worst_case_lifetime
from repro.experiments.common import (
    FIGURE7_COLLECTORS,
    ExperimentOutput,
    Results,
)
from repro.harness.experiment import RunKey
from repro.harness.tables import format_table

BENCHMARKS = ["lusearch", "xalan"]

#: OS-directed rows: a placement-agnostic collector under each kernel
#: policy (the collector binds nothing; the OS decides placement).
OS_POLICIES = ["first-touch", "interleave", "migrate"]

#: GC-directed rows: the Kingsguard family under static binding.
GC_COLLECTORS = FIGURE7_COLLECTORS


def _rows() -> List[Tuple[str, RunKey]]:
    """Each table row's policy label and run key, in table order."""
    rows = []
    for benchmark in BENCHMARKS:
        rows.append(("OS static (all-PCM)", RunKey(benchmark, "PCM-Only")))
        for placement in OS_POLICIES:
            rows.append((f"OS {placement}",
                         RunKey(benchmark, "PCM-Only",
                                placement=placement)))
        for collector in GC_COLLECTORS:
            rows.append((f"GC {collector}", RunKey(benchmark, collector)))
    return rows


def keys() -> List[RunKey]:
    return [key for _, key in _rows()]


def render(results: Results) -> ExperimentOutput:
    rows: List[List[str]] = []
    data: Dict[str, Dict[str, float]] = {}
    rates: Dict[str, List[float]] = {}
    for label, key in _rows():
        benchmark = key.benchmark
        result = results[key]
        rate = result.pcm_write_rate_mbs
        lifetime = pcm_lifetime_years(rate)
        total_writes = result.total_write_lines
        overhead = (100.0 * result.migration_writes / total_writes
                    if total_writes else 0.0)
        rows.append([
            benchmark, label,
            f"{result.pcm_write_lines:.0f}",
            f"{rate:.1f}",
            f"{lifetime:.1f}y",
            f"{result.pages_migrated:.0f}",
            f"{result.migration_writes:.0f}",
            f"{overhead:.1f}%",
        ])
        data[f"{benchmark}/{label}"] = {
            "pcm_write_lines": result.pcm_write_lines,
            "pcm_write_rate_mbs": rate,
            "lifetime_years": lifetime,
            "pages_migrated": result.pages_migrated,
            "migration_writes": result.migration_writes,
            "migration_cycles": result.migration_cycles,
            "migration_overhead_pct": overhead,
        }
        rates.setdefault(label, []).append(rate)

    worst = {label: worst_case_lifetime(series)
             for label, series in rates.items()}
    data["worst_case_lifetime_years"] = worst
    footer = "\n".join(
        f"  {label}: worst-case lifetime {years:.1f}y"
        for label, years in worst.items())
    text = format_table(
        ["Benchmark", "Policy", "PCM writes", "PCM MB/s", "Lifetime",
         "Pages migr.", "Migr. lines", "Migr. ovh."],
        rows,
        title=("Extension: OS-directed page migration (first-touch / "
               "interleave / MigrantStore) vs GC-directed placement "
               "(Kingsguard, static binding)"))
    text += "\nWorst case across benchmarks (50% wear levelling):\n" + footer
    return ExperimentOutput("migration_vs_gc",
                            "OS migration vs GC placement", text, data)
