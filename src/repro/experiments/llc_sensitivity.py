"""Extension: LLC-size sensitivity of KG-N's benefit (Section V's story).

The paper's single most surprising validation result: earlier
simulation with a 4 MB LLC reported an 81 % PCM-write reduction for
KG-N, but matching the emulation platform's 20 MB LLC collapses it to
4 % — the big cache absorbs the nursery writes KG-N would have caught.

This experiment sweeps the (scaled) LLC size and measures KG-N's and
KG-W's reductions at each point, reproducing the crossover from
"nursery placement matters" to "the LLC already did the job".
"""

from __future__ import annotations

from typing import Dict, List

from repro.config import DEFAULT_SCALE_CONFIG
from repro.experiments.common import ExperimentOutput, Results
from repro.harness.experiment import RunKey
from repro.harness.metrics import average, percent_reduction
from repro.harness.tables import render_series

BENCHMARKS = ["lusearch", "xalan", "bloat"]

#: LLC sizes as fractions of the platform's (scaled) 20 MB-equivalent.
LLC_POINTS = {
    "4MB-equiv": DEFAULT_SCALE_CONFIG.llc_size // 5,
    "10MB-equiv": DEFAULT_SCALE_CONFIG.llc_size // 2,
    "20MB-equiv": DEFAULT_SCALE_CONFIG.llc_size,
    "40MB-equiv": DEFAULT_SCALE_CONFIG.llc_size * 2,
}
COLLECTORS = ["KG-N", "KG-W"]


def keys() -> List[RunKey]:
    return [RunKey(benchmark, collector, llc_size=llc_size)
            for llc_size in LLC_POINTS.values()
            for benchmark in BENCHMARKS
            for collector in ["PCM-Only"] + COLLECTORS]


def render(results: Results) -> ExperimentOutput:
    series: Dict[str, Dict[str, float]] = {c: {} for c in COLLECTORS}
    for label, llc_size in LLC_POINTS.items():
        for collector in COLLECTORS:
            reductions: List[float] = []
            for benchmark in BENCHMARKS:
                baseline = results[RunKey(benchmark, "PCM-Only",
                                          llc_size=llc_size)].pcm_write_lines
                writes = results[RunKey(benchmark, collector,
                                        llc_size=llc_size)].pcm_write_lines
                reductions.append(percent_reduction(max(1, baseline),
                                                    writes))
            series[collector][label] = average(reductions)
    text = render_series(
        series, value_format="{:.0f}%",
        title=("Extension: PCM-write reduction vs LLC size "
               "(avg over lusearch/xalan/bloat)"))
    text += ("\n\nThe paper's Section V in one sweep: with a small LLC "
             "the nursery's writes\nreach memory and KG-N shines; a big "
             "LLC absorbs them first, and only KG-W's\nmature-side "
             "segregation keeps paying off.")
    return ExperimentOutput("llc_sensitivity", "LLC sensitivity", text,
                            {"series": series,
                             "llc_points": dict(LLC_POINTS)})
