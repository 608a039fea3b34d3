"""Extension: profile-driven write rationing (Crystal Gazer).

The paper's conclusion points to its follow-up work: a collector that
*predicts* write-intensive objects from ahead-of-time profiling instead
of monitoring them online (Akram et al., SIGMETRICS 2019).  This
experiment evaluates the reproduction's KG-CG implementation against
KG-N and KG-W on both write protection (PCM writes vs PCM-Only) and
runtime cost (overhead vs KG-N) — the trade-off that motivates
prediction: most of KG-W's PCM-write reduction at a fraction of its
monitoring overhead.
"""

from __future__ import annotations

from typing import Dict, List

from repro.experiments.common import ExperimentOutput, Results
from repro.harness.experiment import RunKey
from repro.harness.tables import format_table

BENCHMARKS = ["lusearch", "pmd", "pjbb", "pr", "cc", "als"]
COLLECTORS = ["KG-N", "KG-CG", "KG-W"]


def keys() -> List[RunKey]:
    return [RunKey(benchmark, collector) for benchmark in BENCHMARKS
            for collector in ["PCM-Only"] + COLLECTORS]


def render(results: Results) -> ExperimentOutput:
    rows = []
    data: Dict[str, Dict[str, float]] = {}
    for benchmark in BENCHMARKS:
        baseline = results[RunKey(benchmark, "PCM-Only")]
        kgn_time = results[RunKey(benchmark, "KG-N")].elapsed_seconds
        row = [benchmark]
        entry: Dict[str, float] = {}
        for collector in COLLECTORS:
            result = results[RunKey(benchmark, collector)]
            normalized = result.pcm_write_lines / max(
                1, baseline.pcm_write_lines)
            overhead = 100.0 * (result.elapsed_seconds / kgn_time - 1.0)
            row += [f"{normalized:.2f}", f"{overhead:+.0f}%"]
            entry[f"{collector}/writes"] = normalized
            entry[f"{collector}/overhead"] = overhead
        rows.append(row)
        data[benchmark] = entry
    headers = ["Benchmark"]
    for collector in COLLECTORS:
        headers += [f"{collector} writes", f"{collector} time"]
    text = format_table(
        headers, rows,
        title=("Extension: Crystal Gazer (KG-CG) — PCM writes normalized "
               "to PCM-Only, runtime relative to KG-N"))
    text += ("\n\nKG-CG predicts write-intensive allocation contexts from "
             "the profiling (warm-up)\niteration and tenures them straight "
             "to DRAM: no observer space, no per-store\nmonitoring cost.")
    return ExperimentOutput("crystal_gazer", "Profile-driven rationing",
                            text, data)
