"""Observability: metrics, tracing, narration, and run reports.

The paper's methodology is measurement-first — ``pcm-memory`` counters,
per-socket write rates, GC pause breakdowns (Sections III-B, V) — and
this package is the reproduction's equivalent of that tooling:

* :mod:`repro.observability.metrics` — registries of named counters
  and histograms with hierarchical dotted names
  (``machine.socket0.llc.hits``, ``runner.cache.hits``); the
  process-wide one holds host events.  Cheap enough to leave always-on.
* :mod:`repro.observability.trace` — an event tracer emitting
  timestamped spans and events (GC phases, mbind calls, monitor
  samples, experiment runs) into a bounded ring buffer with JSON-lines
  export.  Disabled by default; instrumented hot paths pay only a
  ``TRACER.enabled`` boolean check.
* :mod:`repro.observability.log` — the ``logging``-based narrator used
  instead of bare ``print`` so library consumers can silence or
  redirect progress output.
* :mod:`repro.observability.profile` — the write-attribution
  profiler: counter deltas per hierarchical span path, with Chrome
  trace-event, folded-stacks, and ASCII-table exporters (the
  ``repro profile`` verb).  Off by default, like the tracer.
* :mod:`repro.observability.report` — machine-readable run reports
  (the ``repro run --json`` payload), and the dotted names of a
  result's simulated counters.
"""

from repro.observability.log import enable_console, get_logger, narrate
from repro.observability.metrics import METRICS, MetricsRegistry, sanitize
from repro.observability.profile import (
    PROFILER,
    Profiler,
    attribution_table,
    parse_folded,
    to_chrome_trace,
    to_folded,
)
from repro.observability.report import result_metrics, run_report, sweep_report
from repro.observability.trace import TRACER, Tracer

__all__ = [
    "METRICS",
    "MetricsRegistry",
    "PROFILER",
    "Profiler",
    "TRACER",
    "Tracer",
    "attribution_table",
    "enable_console",
    "get_logger",
    "narrate",
    "parse_folded",
    "result_metrics",
    "run_report",
    "sanitize",
    "sweep_report",
    "to_chrome_trace",
    "to_folded",
]
