"""Figure 4: PCM writes of multiprogrammed workloads (Section VI-B).

Average PCM writes with 1, 2, and 4 concurrent instances, normalised
to a single instance, for (a) PCM-Only and (b) KG-W.  The paper finds
super-linear growth under PCM-Only — LLC interference pushes nursery
writes to memory — while KG-W grows roughly linearly.
"""

from __future__ import annotations

from typing import Dict, List

from repro.experiments.common import (
    DACAPO_MULTIPROG,
    GRAPHCHI_ALL,
    ExperimentOutput,
    Results,
)
from repro.harness.experiment import RunKey
from repro.harness.tables import render_series

INSTANCE_COUNTS = (1, 2, 4)
SUITES: Dict[str, List[str]] = {
    "DaCapo": DACAPO_MULTIPROG,
    "Pjbb": ["pjbb"],
    "GraphChi": GRAPHCHI_ALL,
}
COLLECTORS = ["PCM-Only", "KG-W"]


def keys() -> List[RunKey]:
    return [RunKey(benchmark, collector, instances=count)
            for collector in COLLECTORS
            for benchmarks in SUITES.values()
            for benchmark in benchmarks
            for count in INSTANCE_COUNTS]


def _suite_growth(results: Results, collector: str
                  ) -> Dict[str, Dict[str, float]]:
    """Average PCM writes per suite, normalised to one instance.

    Like the paper's figure, the suite's *average writes* are computed
    first and then normalised — so benchmarks with tiny single-instance
    counts do not dominate the growth factor.
    """
    growth: Dict[str, Dict[str, float]] = {}
    all_totals: Dict[int, int] = {n: 0 for n in INSTANCE_COUNTS}
    for suite, benchmarks in SUITES.items():
        totals: Dict[int, int] = {n: 0 for n in INSTANCE_COUNTS}
        for benchmark in benchmarks:
            for count in INSTANCE_COUNTS:
                writes = results[RunKey(benchmark, collector,
                                        instances=count)].pcm_write_lines
                totals[count] += writes
                all_totals[count] += writes
        growth[suite] = {str(n): totals[n] / max(totals[1], 1)
                         for n in INSTANCE_COUNTS}
    growth["All"] = {str(n): all_totals[n] / max(all_totals[1], 1)
                     for n in INSTANCE_COUNTS}
    return growth


def render(results: Results) -> ExperimentOutput:
    pcm_only = _suite_growth(results, "PCM-Only")
    kgw = _suite_growth(results, "KG-W")
    text = render_series(
        pcm_only,
        title=("Figure 4(a): PCM writes relative to one instance "
               "(PCM-Only)")) + "\n\n"
    text += render_series(
        kgw,
        title="Figure 4(b): PCM writes relative to one instance (KG-W)")
    return ExperimentOutput("figure4", "Multiprogrammed PCM writes", text,
                            {"PCM-Only": pcm_only, "KG-W": kgw})
