"""Shared pieces for the experiment scripts."""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.config import DEFAULT_SCALE_CONFIG, ScaleConfig
from repro.core.platform import EmulationMode, MeasurementResult
from repro.harness.experiment import ExperimentRunner, RunKey
from repro.observability.metrics import METRICS

#: All DaCapo benchmarks (11 originals + the two updated variants).
DACAPO_ALL = [
    "antlr", "avrora", "bloat", "eclipse", "fop", "hsqldb", "luindex",
    "lusearch", "lu.Fix", "pmd", "pmd.S", "sunflow", "xalan",
]

#: The 7 DaCapo benchmarks the paper can also simulate (Section V).
DACAPO_SIMULATABLE = [
    "lusearch", "lu.Fix", "avrora", "xalan", "pmd", "pmd.S", "bloat",
]

#: Representative DaCapo subset used for the multiprogrammed sweeps
#: (running all 13 at four instances is possible but slow; this subset
#: spans the allocation-intensity and working-set spectrum).
DACAPO_MULTIPROG = ["lusearch", "xalan", "avrora", "pmd", "fop"]

GRAPHCHI_ALL = ["pr", "cc", "als"]

#: Every benchmark of Figure 6 (the full set).
FIGURE6_BENCHMARKS = DACAPO_ALL + ["pjbb"] + GRAPHCHI_ALL

#: Kingsguard configurations of Figure 7.
FIGURE7_COLLECTORS = [
    "KG-N", "KG-B", "KG-N+LOO", "KG-B+LOO", "KG-W", "KG-W-LOO", "KG-W-MDO",
]


@dataclass
class ExperimentOutput:
    """Rendered text plus structured data for one table/figure."""

    ident: str
    title: str
    text: str
    data: Dict[str, Any] = field(default_factory=dict)

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.text


def ensure_runner(runner: Optional[ExperimentRunner]) -> ExperimentRunner:
    if runner is not None:
        return runner
    from repro.harness.experiment import SHARED_RUNNER
    return SHARED_RUNNER


def error_result(key: RunKey) -> MeasurementResult:
    """A NaN-filled placeholder for a configuration that failed.

    NaN propagates through the experiments' arithmetic (ratios,
    averages, MB/s conversions), so a failed cell renders as ``ERR``
    in :func:`repro.harness.tables.format_table` instead of poisoning
    the whole table — the remaining cells stay meaningful.
    """
    nan = float("nan")
    from repro.runtime.jvm import RuntimeStats
    return MeasurementResult(
        benchmark=key.benchmark, collector=key.collector, mode=key.mode,
        instances=key.instances, pcm_write_lines=nan,
        dram_write_lines=nan, elapsed_seconds=nan,
        per_tag_pcm_writes={}, per_tag_dram_writes={},
        instance_stats=[RuntimeStats() for _ in range(key.instances)],
        monitor_rates_mbs=[], qpi_crossings=nan,
        placement=key.placement)


class ResilientRunner(ExperimentRunner):
    """An :class:`ExperimentRunner` that survives failing cells.

    A configuration that raises is recorded in :attr:`errors` and
    replaced by :func:`error_result`, so its cell renders as ``ERR``.
    A run is a pure function of its key, so the cell is not retried.
    Failed keys are cached like successes so a configuration that
    appears in several tables fails once, not once per cell.
    """

    def __init__(self, verbose: bool = False) -> None:
        super().__init__(verbose=verbose)
        #: (key, exception) per configuration that failed.
        self.errors: List[Tuple[RunKey, BaseException]] = []

    def run(self, benchmark: str, collector: str = "PCM-Only",
            instances: int = 1, dataset: str = "default",
            mode: EmulationMode = EmulationMode.EMULATION,
            llc_size: int = 0,
            scale: ScaleConfig = DEFAULT_SCALE_CONFIG,
            placement: str = "static") -> MeasurementResult:
        try:
            return super().run(benchmark, collector, instances, dataset,
                               mode, llc_size, scale, placement)
        except Exception as exc:  # noqa: BLE001 - rendered as ERR
            key = RunKey(benchmark, collector, instances, dataset, mode,
                         llc_size, scale.scale, placement)
            self.errors.append((key, exc))
            METRICS.inc("runner.failures")
            placeholder = error_result(key)
            self._cache[key] = placeholder
            return placeholder


def main(run_callable) -> None:  # pragma: no cover - CLI helper
    """Run an experiment module from the command line.

    ``--on-error skip`` keeps a single failing configuration from
    killing the whole table: the cell renders as ``ERR`` and the
    failures are listed on stderr.
    """
    parser = argparse.ArgumentParser(
        description=getattr(run_callable, "__doc__", None))
    parser.add_argument("--on-error", choices=["fail", "skip"],
                        default="fail",
                        help="what to do when one configuration raises: "
                             "propagate (fail) or render the cell as ERR "
                             "(skip); default: fail")
    args = parser.parse_args()
    runner = (ensure_runner(None) if args.on_error == "fail"
              else ResilientRunner())
    output = run_callable(runner)
    print(output.text)
    errors = getattr(runner, "errors", [])
    for key, exc in errors:
        print(f"ERR {key.benchmark}/{key.collector}/n={key.instances}: "
              f"{type(exc).__name__}: {exc}", file=sys.stderr)
    if errors:
        sys.exit(1)
