"""Figure 3: PCM writes of C++ versus Java GraphChi (Section VI-A).

On a PCM-Only system the Java implementations of PR, CC, and ALS write
substantially more to PCM than the C++ implementations (the paper: up
to 3.2x), because of allocation volume, GC copying, and
zero-initialisation.  With hybrid memory, KG-N and KG-W bring Java's
PCM writes down around or below the C++ level.
"""

from __future__ import annotations

from typing import Dict

from repro.experiments.common import (
    GRAPHCHI_ALL,
    ExperimentOutput,
    main,
)
from repro.harness.experiment import ExperimentRunner
from repro.harness.tables import render_series

SERIES = ["C++", "Java", "KG-N", "KG-W"]


def run(runner: ExperimentRunner) -> ExperimentOutput:
    normalized: Dict[str, Dict[str, float]] = {name: {} for name in SERIES}
    raw: Dict[str, Dict[str, int]] = {name: {} for name in SERIES}
    for app in GRAPHCHI_ALL:
        cpp = runner.run(app + ".cpp", "PCM-Only").pcm_write_lines
        java = runner.run(app, "PCM-Only").pcm_write_lines
        kgn = runner.run(app, "KG-N").pcm_write_lines
        kgw = runner.run(app, "KG-W").pcm_write_lines
        label = app.upper()
        for name, value in (("C++", cpp), ("Java", java),
                            ("KG-N", kgn), ("KG-W", kgw)):
            raw[name][label] = value
            normalized[name][label] = value / cpp
    text = render_series(
        normalized,
        title=("Figure 3: PCM writes normalized to C++ "
               "(PCM-Only system; KG-N/KG-W are Java on hybrid memory)"))
    return ExperimentOutput("figure3", "C++ vs Java PCM writes", text,
                            {"normalized": normalized, "raw": raw})


if __name__ == "__main__":  # pragma: no cover
    main(run)
