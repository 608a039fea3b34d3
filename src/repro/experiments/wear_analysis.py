"""Extension: measured wear-levelling efficiency and refined lifetimes.

The paper's lifetime model (Table III) *assumes* hardware wear
levelling within 50 % of the theoretical maximum.  The emulator can do
better: it observes every PCM line write, so we can replay the real
wear distribution through a Start-Gap model and *measure* the
efficiency per workload and collector — then recompute lifetimes with
the measured factor instead of the assumption.

This is new analysis enabled by the reproduction (the paper's platform
could not see per-line wear through the CPU's aggregate counters).
"""

from __future__ import annotations

from typing import Dict, List

from repro.core.lifetime import pcm_lifetime_years
from repro.core.platform import EmulationMode, HybridMemoryPlatform
from repro.experiments.common import ExperimentOutput, Results
from repro.harness.experiment import RunKey
from repro.harness.tables import format_table
from repro.workloads.registry import benchmark_factory

BENCHMARKS = ["lusearch", "pjbb", "pr"]
COLLECTORS = ["PCM-Only", "KG-W"]


def keys() -> List[RunKey]:
    return []  # a run key has no wear tracking: render measures its own


def render(results: Results) -> ExperimentOutput:
    del results  # wear runs use a dedicated tracking platform
    platform = HybridMemoryPlatform(mode=EmulationMode.EMULATION,
                                    track_wear=True)
    rows = []
    data: Dict[str, Dict[str, float]] = {}
    for benchmark in BENCHMARKS:
        for collector in COLLECTORS:
            factory = benchmark_factory(benchmark)
            result = platform.run(factory, collector=collector)
            assumed = pcm_lifetime_years(result.pcm_write_rate_mbs, 10e6,
                                         wear_leveling_efficiency=0.5)
            efficiency = result.wear_efficiency or 1.0
            measured = pcm_lifetime_years(
                result.pcm_write_rate_mbs, 10e6,
                wear_leveling_efficiency=max(0.01, efficiency))
            rows.append([
                benchmark, collector,
                f"{result.wear_imbalance:.1f}x",
                f"{efficiency:.2f}",
                f"{assumed:.0f}y", f"{measured:.0f}y",
            ])
            data[f"{benchmark}/{collector}"] = {
                "imbalance": result.wear_imbalance,
                "efficiency": efficiency,
                "lifetime_assumed_50pct": assumed,
                "lifetime_measured": measured,
            }
    text = format_table(
        ["Benchmark", "Collector", "Raw imbalance", "Start-Gap eff.",
         "Lifetime @50%", "Lifetime measured"],
        rows,
        title=("Extension: measured Start-Gap wear-levelling efficiency "
               "vs the paper's assumed 50% (10M writes/cell)"))
    return ExperimentOutput("wear_analysis", "Wear-levelling analysis",
                            text, data)
