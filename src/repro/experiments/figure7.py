"""Figure 7: Kingsguard variants on GraphChi (Section VI-E).

PCM writes of all seven Kingsguard configurations normalised to
PCM-Only for PR, CC, and ALS.  The paper's take-aways: the DRAM nursery
(KG-N) removes most writes; merely enlarging the nursery (KG-B) adds
little; the Large Object Optimization helps both KG-N and KG-B;
removing LOO from KG-W costs 1.5-2.3x; removing MDO costs only ~1.14x.
"""

from __future__ import annotations

from typing import Dict

from repro.experiments.common import (
    FIGURE7_COLLECTORS,
    GRAPHCHI_ALL,
    ExperimentOutput,
    main,
)
from repro.harness.experiment import ExperimentRunner
from repro.harness.tables import render_series


def run(runner: ExperimentRunner) -> ExperimentOutput:
    normalized: Dict[str, Dict[str, float]] = {
        c: {} for c in FIGURE7_COLLECTORS}
    for app in GRAPHCHI_ALL:
        baseline = runner.run(app, "PCM-Only").pcm_write_lines
        for collector in FIGURE7_COLLECTORS:
            writes = runner.run(app, collector).pcm_write_lines
            normalized[collector][app.upper()] = writes / baseline
    text = render_series(
        normalized,
        title=("Figure 7: PCM writes normalized to PCM-Only "
               "(GraphChi applications)"))
    return ExperimentOutput("figure7", "Kingsguard variants on GraphChi",
                            text, {"normalized": normalized})


if __name__ == "__main__":  # pragma: no cover
    main(run)
