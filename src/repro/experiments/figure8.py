"""Figure 8: impact of larger input datasets on write rates (Section VI-F).

PCM write rates with the large datasets normalised to the default
datasets, for PCM-Only, KG-N, and KG-W.  The paper observes three
regimes — rates that stay flat, rates that rise (up to ~1.5x), and
rates that fall (down to ~20 % of the default) — with graph
applications' rates dropping substantially when the input grows 10x.
"""

from __future__ import annotations

from typing import Dict, List

from repro.experiments.common import ExperimentOutput, main
from repro.harness.experiment import ExperimentRunner
from repro.harness.tables import render_series

COLLECTORS = ["PCM-Only", "KG-N", "KG-W"]

#: Benchmarks with a large dataset: a DaCapo subset spanning the three
#: regimes, Pjbb, and the GraphChi applications.
BENCHMARKS: List[str] = [
    "lusearch", "hsqldb", "eclipse", "xalan", "pjbb", "pr", "als",
]


def run(runner: ExperimentRunner) -> ExperimentOutput:
    relative: Dict[str, Dict[str, float]] = {c: {} for c in COLLECTORS}
    for benchmark in BENCHMARKS:
        for collector in COLLECTORS:
            default = runner.run(benchmark, collector,
                                 dataset="default").pcm_write_rate_mbs
            large = runner.run(benchmark, collector,
                               dataset="large").pcm_write_rate_mbs
            relative[collector][benchmark] = (large / default
                                              if default else 0.0)
    text = render_series(
        relative,
        title=("Figure 8: PCM write rate with the large dataset, "
               "normalized to the default dataset"))
    return ExperimentOutput("figure8", "Large-dataset write rates", text,
                            {"relative": relative})


if __name__ == "__main__":  # pragma: no cover
    main(run)
