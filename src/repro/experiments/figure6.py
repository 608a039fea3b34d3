"""Figure 6: PCM write rates in MB/s for every benchmark (Section VI-D).

Absolute PCM write rates under PCM-Only, KG-N, KG-B, and KG-W, against
the 140 MB/s recommended maximum derived from a production NVM
deployment (30 drive-writes-per-day on a 375 GB device).  The paper:
most DaCapo benchmarks sit below the line; a couple of DaCapo
applications and all graph applications exceed it badly under PCM-Only,
and Kingsguard — especially KG-W — pulls most workloads back under.
"""

from __future__ import annotations

from typing import Dict

from repro.config import RECOMMENDED_WRITE_RATE_MBS
from repro.experiments.common import (
    FIGURE6_BENCHMARKS,
    ExperimentOutput,
    main,
)
from repro.harness.experiment import ExperimentRunner
from repro.harness.tables import render_series

COLLECTORS = ["PCM-Only", "KG-N", "KG-B", "KG-W"]


def run(runner: ExperimentRunner) -> ExperimentOutput:
    rates: Dict[str, Dict[str, float]] = {c: {} for c in COLLECTORS}
    for benchmark in FIGURE6_BENCHMARKS:
        for collector in COLLECTORS:
            rates[collector][benchmark] = runner.run(
                benchmark, collector).pcm_write_rate_mbs
    text = render_series(
        rates, value_format="{:.0f}",
        title=("Figure 6: PCM write rate in MB/s "
               f"(recommended max {RECOMMENDED_WRITE_RATE_MBS:.0f} MB/s)"))
    over = [b for b in FIGURE6_BENCHMARKS
            if rates["PCM-Only"][b] > RECOMMENDED_WRITE_RATE_MBS]
    text += ("\n\nAbove the recommended rate under PCM-Only: "
             + (", ".join(over) if over else "none"))
    return ExperimentOutput("figure6", "PCM write rates", text,
                            {"rates": rates, "over_limit": over})


if __name__ == "__main__":  # pragma: no cover
    main(run)
