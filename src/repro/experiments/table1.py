"""Table I: space-to-socket mapping of the Kingsguard collectors.

A configuration table rather than a measurement: it documents which
heap spaces each collector binds to Socket 0 (DRAM) and Socket 1 (PCM).
"""

from __future__ import annotations

from repro.core.collectors.policy import collector_config, space_socket_table
from repro.experiments.common import ExperimentOutput, main
from repro.harness.experiment import ExperimentRunner

COLLECTORS = ["KG-N", "KG-W", "KG-W-MDO"]


def run(runner: ExperimentRunner) -> ExperimentOutput:
    del runner  # uniform signature; no measurements needed
    text = ("Table I: Kingsguard spaces and their socket mapping "
            "(S0 = DRAM, S1 = PCM)\n")
    text += space_socket_table(COLLECTORS)
    data = {}
    for name in COLLECTORS:
        config = collector_config(name)
        data[name] = {
            "nursery_dram": config.nursery_in_dram,
            "observer": config.has_observer,
            "dram_mature": config.dram_mature,
            "dram_los": config.dram_los,
            "mdo": config.mdo,
        }
    return ExperimentOutput("table1", "Space-to-socket mapping", text, data)


if __name__ == "__main__":  # pragma: no cover
    main(run)
