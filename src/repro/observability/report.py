"""Machine-readable run and sweep reports (the CLI ``--json`` payloads).

A run report is a plain JSON-serialisable dict summarising one
:class:`~repro.core.platform.MeasurementResult`: per-socket read/write
line counts, LLC hit rates, GC statistics and phase spans, and
wall-time (both emulated seconds and host seconds).  A sweep report
(:func:`sweep_report`) summarises a crash-tolerant
:class:`~repro.harness.experiment.SweepReport`: one outcome per input
key plus a failures section with exception types and attempt counts.
The schemas are versioned so downstream tooling can detect changes.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.observability.metrics import MetricsRegistry, sanitize

#: Bump when the report layout changes incompatibly.
REPORT_SCHEMA = "repro.run_report/v1"

#: Schema tag for :func:`sweep_report` payloads.
SWEEP_REPORT_SCHEMA = "repro.sweep_report/v1"

#: The :func:`result_metrics` names that count the whole run (warm-up,
#: measured iteration and teardown); every other name counts the
#: measured iteration only.
WHOLE_RUN_COUNTERS = tuple(f"kernel.{name}" for name in (
    "mmap_calls", "munmap_calls", "retag_calls", "pages_mapped",
    "pages_unmapped", "page_faults"))


def _stats_dict(stats) -> Dict[str, object]:
    """Serialise one instance's RuntimeStats."""
    return {
        "minor_gcs": stats.minor_gcs,
        "full_gcs": stats.full_gcs,
        "observer_collections": stats.observer_collections,
        "bytes_allocated": stats.bytes_allocated,
        "bytes_copied": stats.bytes_copied,
        "objects_allocated": stats.objects_allocated,
        "objects_promoted": stats.objects_promoted,
        "large_migrations": stats.large_migrations,
        "gc_cycles": stats.gc_cycles,
        "mutator_cycles": stats.mutator_cycles,
        "max_pause_cycles": stats.max_pause_cycles,
        "mean_pause_cycles": stats.mean_pause_cycles,
        "pause_count": len(stats.pauses),
    }


def result_metrics(result) -> MetricsRegistry:
    """A private registry naming one result's simulated counters.

    ``machine.socketN.llc.*``, ``machine.socketN.mem.*``,
    ``machine.qpi.crossings``, ``kernel.*`` (the result's
    ``kernel_counters`` and its migration counts) and
    ``gc.<collector>.*`` summed over instances, with one
    ``pause_cycles`` observation per pause.  Every counter covers the
    measured iteration only, except the :data:`WHOLE_RUN_COUNTERS`
    (``kernel.mmap_calls``, ``munmap_calls``, ``retag_calls``,
    ``pages_mapped``, ``pages_unmapped`` and ``page_faults``), which
    cover warm-up, the measured iteration and teardown.  ``repro
    stats`` renders it and ``repro run --json`` reports it.
    """
    registry = MetricsRegistry()
    for llc in result.llc_stats:
        prefix = f"machine.socket{llc['socket']}.llc"
        registry.inc(f"{prefix}.hits", llc["hits"])
        registry.inc(f"{prefix}.misses", llc["misses"])
        registry.inc(f"{prefix}.dirty_evictions", llc["dirty_evictions"])
    for node in result.node_counters:
        prefix = f"machine.socket{node['node']}.mem"
        registry.inc(f"{prefix}.read_lines", node["read_lines"])
        registry.inc(f"{prefix}.write_lines", node["write_lines"])
    registry.inc("machine.qpi.crossings", result.qpi_crossings)
    for name, value in result.kernel_counters.items():
        registry.inc(f"kernel.{name}", value)
    registry.inc("kernel.pages_migrated", result.pages_migrated)
    registry.inc("kernel.migration_writes", result.migration_writes)
    registry.inc("kernel.migration_cycles", result.migration_cycles)
    gc_prefix = f"gc.{sanitize(result.collector)}"
    for stats in result.instance_stats:
        registry.inc(f"{gc_prefix}.minor_collections", stats.minor_gcs)
        registry.inc(f"{gc_prefix}.full_collections", stats.full_gcs)
        registry.inc(f"{gc_prefix}.observer_collections",
                     stats.observer_collections)
        registry.inc(f"{gc_prefix}.nursery_survivors",
                     stats.objects_promoted)
        registry.inc(f"{gc_prefix}.large_migrations",
                     stats.large_migrations)
        registry.inc(f"{gc_prefix}.bytes_allocated", stats.bytes_allocated)
        registry.inc(f"{gc_prefix}.bytes_copied", stats.bytes_copied)
        for pause in stats.pauses:
            registry.observe(f"{gc_prefix}.pause_cycles", pause)
    return registry


def run_report(result, gc_spans: Optional[List[Dict]] = None,
               metrics: Optional[Dict[str, Dict]] = None,
               trace_dropped: Optional[int] = None) -> Dict:
    """Build the report dict for one measurement.

    Parameters
    ----------
    result:
        A :class:`~repro.core.platform.MeasurementResult`.
    gc_spans:
        Optional tracer spans (``TRACER.spans("gc.")``) recorded while
        the measurement ran; exported under ``gc.phases``.
    metrics:
        Optional :meth:`MetricsRegistry.as_dict` snapshot (``repro run
        --json`` passes :func:`result_metrics`'s).
    trace_dropped:
        Records the tracer dropped (ring-buffer overflow) while this
        measurement ran; surfaced under ``trace.dropped`` so consumers
        know the span record is incomplete.  ``None`` omits the
        section.
    """
    sockets = []
    for counters in result.node_counters:
        entry = dict(counters)
        llc = next((dict(s) for s in result.llc_stats
                    if s.get("socket") == counters.get("node")), None)
        if llc is not None:
            llc.pop("socket", None)
            entry["llc"] = llc
        sockets.append(entry)
    report: Dict = {
        "schema": REPORT_SCHEMA,
        "benchmark": result.benchmark,
        "collector": result.collector,
        "mode": result.mode.value,
        "instances": result.instances,
        "wall_time": {
            "emulated_seconds": result.elapsed_seconds,
            "host_seconds": result.host_seconds,
        },
        "sockets": sockets,
        "qpi_crossings": result.qpi_crossings,
        "pcm": {
            "write_lines": result.pcm_write_lines,
            "write_bytes": result.pcm_write_bytes,
            "write_rate_mbs": result.pcm_write_rate_mbs,
            "writes_by_tag": dict(result.per_tag_pcm_writes),
        },
        "dram": {
            "write_lines": result.dram_write_lines,
            "write_bytes": result.dram_write_bytes,
            "writes_by_tag": dict(result.per_tag_dram_writes),
        },
        "monitor_rates_mbs": list(result.monitor_rates_mbs),
        "gc": {
            "instances": [_stats_dict(s) for s in result.instance_stats],
            "phases": list(gc_spans or []),
        },
    }
    if result.wear_efficiency is not None:
        report["wear"] = {
            "efficiency": result.wear_efficiency,
            "imbalance": result.wear_imbalance,
        }
    if getattr(result, "profile", None) is not None:
        profile = result.profile
        report["profile"] = {
            "schema": profile.get("schema"),
            "attribution": profile.get("self", {}),
        }
    if trace_dropped is not None:
        report["trace"] = {"dropped": trace_dropped}
    if metrics is not None:
        report["metrics"] = metrics
    return report


def _outcome_dict(outcome) -> Dict:
    """Serialise one :class:`~repro.harness.experiment.RunOutcome`."""
    entry: Dict = {
        "key": outcome.key.to_dict(),
        "status": ("ok" if outcome.ok else "failed"),
        "attempts": outcome.attempts,
        "cached": outcome.cached,
        "from_checkpoint": outcome.from_checkpoint,
    }
    if outcome.ok:
        result = outcome.result
        entry["result"] = {
            "pcm_write_lines": result.pcm_write_lines,
            "dram_write_lines": result.dram_write_lines,
            "pcm_write_rate_mbs": result.pcm_write_rate_mbs,
            "qpi_crossings": result.qpi_crossings,
            "elapsed_seconds": result.elapsed_seconds,
        }
    else:
        entry["failure"] = {
            "exception_type": outcome.failure.exception_type,
            "message": outcome.failure.message,
            "attempts": outcome.failure.attempts,
            "worker": outcome.failure.worker,
        }
    return entry


def sweep_report(report) -> Dict:
    """Build the JSON payload for one crash-tolerant sweep.

    ``report`` is a :class:`~repro.harness.experiment.SweepReport`; the
    payload accounts for every input key exactly once (in input order)
    and surfaces failures — exception type, attempts, worker — in their
    own section so a figure reproduction can show exactly which cells
    died and why.
    """
    outcomes = [_outcome_dict(o) for o in report.outcomes]
    payload: Dict = {
        "schema": SWEEP_REPORT_SCHEMA,
        "total_keys": len(report.outcomes),
        "succeeded": sum(1 for o in report.outcomes if o.ok),
        "failed": len(report.failures),
        "outcomes": outcomes,
        "failures": [entry for entry in outcomes
                     if entry["status"] == "failed"],
    }
    return payload
