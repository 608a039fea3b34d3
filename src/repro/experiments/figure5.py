"""Figure 5: Pjbb and GraphChi relative to DaCapo (Section VI-C).

Raw PCM writes (a) and PCM write rates (b) of Pjbb and GraphChi
relative to the DaCapo average, on a PCM-Only system, for 1/2/4
instances.  The paper: Pjbb writes ~2x DaCapo and GraphChi ~46x at one
instance (the gap narrowing with multiprogramming), while write *rates*
are a milder 1.7x and 4.7x.
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
from repro.harness.metrics import average
from repro.harness.tables import render_series

INSTANCE_COUNTS = (1, 2, 4)
BENCHMARKS: List[str] = DACAPO_MULTIPROG + ["pjbb"] + GRAPHCHI_ALL


def keys() -> List[RunKey]:
    return [RunKey(benchmark, "PCM-Only", instances=count)
            for count in INSTANCE_COUNTS for benchmark in BENCHMARKS]


def render(results: Results) -> ExperimentOutput:
    def pcm_only(benchmark: str, count: int):
        return results[RunKey(benchmark, "PCM-Only", instances=count)]

    writes: Dict[str, Dict[str, float]] = {"Pjbb": {}, "GraphChi": {}}
    rates: Dict[str, Dict[str, float]] = {"Pjbb": {}, "GraphChi": {}}
    for count in INSTANCE_COUNTS:
        dacapo_writes = average([pcm_only(b, count).pcm_write_lines
                                 for b in DACAPO_MULTIPROG])
        dacapo_rate = average([pcm_only(b, count).pcm_write_rate_mbs
                               for b in DACAPO_MULTIPROG])
        pjbb = pcm_only("pjbb", count)
        graphchi_writes = average([pcm_only(b, count).pcm_write_lines
                                   for b in GRAPHCHI_ALL])
        graphchi_rate = average([pcm_only(b, count).pcm_write_rate_mbs
                                 for b in GRAPHCHI_ALL])
        label = str(count)
        writes["Pjbb"][label] = pjbb.pcm_write_lines / dacapo_writes
        writes["GraphChi"][label] = graphchi_writes / dacapo_writes
        rates["Pjbb"][label] = pjbb.pcm_write_rate_mbs / dacapo_rate
        rates["GraphChi"][label] = graphchi_rate / dacapo_rate
    text = render_series(
        writes,
        title=("Figure 5(a): PCM writes relative to DaCapo "
               "(PCM-Only, by instance count)")) + "\n\n"
    text += render_series(
        rates,
        title=("Figure 5(b): PCM write rates relative to DaCapo "
               "(PCM-Only, by instance count)"))
    return ExperimentOutput("figure5", "Suites relative to DaCapo", text,
                            {"writes": writes, "rates": rates})
