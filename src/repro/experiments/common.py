"""Shared pieces for the experiment modules."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Mapping

from repro.core.platform import MeasurementResult
from repro.harness.experiment import RunKey

#: What an experiment's ``render`` reads: one result per declared key.
Results = Mapping[RunKey, MeasurementResult]

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
