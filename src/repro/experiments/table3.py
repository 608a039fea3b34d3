"""Table III: worst-case PCM lifetimes in years (Section VI-G).

Applies the lifetime model (Equation 1, derated by 50 % for realistic
wear-levelling, 32 GB PCM) to the worst observed write rate across the
benchmark set, for single-program and four-program workloads, under
PCM-Only and KG-W, at three endurance levels.
"""

from __future__ import annotations

from typing import Dict, List

from repro.core.lifetime import (
    PCM_ENDURANCE_LEVELS,
    pcm_lifetime_years,
    worst_rate,
)
from repro.experiments.common import (
    DACAPO_MULTIPROG,
    GRAPHCHI_ALL,
    ExperimentOutput,
    Results,
)
from repro.harness.experiment import RunKey
from repro.harness.tables import format_cell, format_table

#: Benchmarks included in the worst-case sweep (the multiprogrammed
#: subset, since the N=4 column needs four-instance runs).
BENCHMARKS: List[str] = DACAPO_MULTIPROG + ["pjbb"] + GRAPHCHI_ALL

COLLECTORS = ["PCM-Only", "KG-W"]
INSTANCE_COUNTS = (1, 4)


def keys() -> List[RunKey]:
    return [RunKey(benchmark, collector, instances=count)
            for collector in COLLECTORS
            for count in INSTANCE_COUNTS
            for benchmark in BENCHMARKS]


def render(results: Results) -> ExperimentOutput:
    worst_rates: Dict[str, Dict[int, float]] = {}
    for collector in COLLECTORS:
        worst_rates[collector] = {}
        for count in INSTANCE_COUNTS:
            worst_rates[collector][count] = worst_rate(
                results[RunKey(b, collector,
                               instances=count)].pcm_write_rate_mbs
                for b in BENCHMARKS)

    rows = []
    lifetimes: Dict[str, Dict[str, float]] = {}
    for count in INSTANCE_COUNTS:
        row = [f"N = {count}"]
        for label, endurance in PCM_ENDURANCE_LEVELS.items():
            for collector in COLLECTORS:
                years = pcm_lifetime_years(
                    worst_rates[collector][count], endurance)
                key = f"{label}/{collector}/N={count}"
                lifetimes[key] = {"years": years}
                row.append(format_cell(years, "{:.0f}"))
        rows.append(row)
    headers = ["Workload"]
    for label in PCM_ENDURANCE_LEVELS:
        short = label.split(" (")[1].rstrip(")")
        headers += [f"{short} {c}" for c in COLLECTORS]
    text = format_table(
        headers, rows,
        title=("Table III: worst-case PCM lifetime in years "
               "(32 GB PCM, 50% wear-levelling efficiency)"))
    return ExperimentOutput("table3", "PCM lifetimes", text,
                            {"worst_rate_mbs": worst_rates,
                             "lifetimes": lifetimes})
