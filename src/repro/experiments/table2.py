"""Table II: emulation versus simulation (Section V).

For the 7 simulatable DaCapo benchmarks, measure the percentage
reduction in PCM writes of KG-N, KG-B, and KG-W relative to the
PCM-Only reference system, in both measurement modes.  The section also
reports the KG-B total-memory-write blow-up relative to KG-N
(paper: 1.98x simulated, 2.2x emulated) and KG-W's performance overhead
over KG-N (paper: 7 % simulated, 10 % emulated).
"""

from __future__ import annotations

from typing import Dict, List

from repro.core.platform import EmulationMode
from repro.experiments.common import (
    DACAPO_SIMULATABLE,
    ExperimentOutput,
    Results,
)
from repro.harness.experiment import RunKey
from repro.harness.metrics import average, percent_reduction
from repro.harness.tables import format_cell, format_table

COLLECTORS = ["KG-N", "KG-B", "KG-W"]
MODES = (EmulationMode.SIMULATION, EmulationMode.EMULATION)


def keys() -> List[RunKey]:
    return [RunKey(benchmark, collector, mode=mode)
            for mode in MODES
            for benchmark in DACAPO_SIMULATABLE
            for collector in ["PCM-Only"] + COLLECTORS]


def render(results: Results) -> ExperimentOutput:
    reductions: Dict[str, Dict[str, float]] = {}
    blowup: Dict[str, float] = {}
    overhead: Dict[str, float] = {}
    for mode in MODES:
        per_collector: Dict[str, float] = {}
        totals: Dict[str, float] = {"KG-N": 0.0, "KG-B": 0.0}
        kgn_time = 0.0
        kgw_time = 0.0
        for collector in COLLECTORS:
            values = []
            for benchmark in DACAPO_SIMULATABLE:
                baseline = results[RunKey(benchmark, "PCM-Only", mode=mode)]
                result = results[RunKey(benchmark, collector, mode=mode)]
                values.append(percent_reduction(baseline.pcm_write_lines,
                                                result.pcm_write_lines))
                if collector in totals:
                    totals[collector] += result.total_write_lines
                if collector == "KG-N":
                    kgn_time += result.elapsed_seconds
                elif collector == "KG-W":
                    kgw_time += result.elapsed_seconds
            per_collector[collector] = average(values)
        reductions[mode.value] = per_collector
        blowup[mode.value] = totals["KG-B"] / totals["KG-N"]
        overhead[mode.value] = 100.0 * (kgw_time / kgn_time - 1.0)

    rows = []
    for collector in COLLECTORS:
        rows.append([
            collector,
            format_cell(reductions["simulation"][collector], "{:.0f}%"),
            format_cell(reductions["emulation"][collector], "{:.0f}%"),
        ])
    text = format_table(
        ["Collector", "Simulator", "Emulator"], rows,
        title=("Table II: PCM-write reduction vs PCM-Only "
               "(avg over 7 DaCapo benchmarks)"))
    text += (
        f"\n\nKG-B total memory writes vs KG-N: "
        f"{format_cell(blowup['simulation'], '{:.2f}x')} simulated, "
        f"{format_cell(blowup['emulation'], '{:.2f}x')} emulated "
        f"(paper: 1.98x / 2.2x)\n"
        f"KG-W runtime overhead vs KG-N: "
        f"{format_cell(overhead['simulation'], '{:.0f}%')} simulated, "
        f"{format_cell(overhead['emulation'], '{:.0f}%')} emulated "
        f"(paper: 7% / 10%)")
    data = {"reductions": reductions, "kgb_total_blowup": blowup,
            "kgw_overhead_percent": overhead}
    return ExperimentOutput("table2", "Emulation vs simulation", text, data)
