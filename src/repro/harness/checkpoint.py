"""Sweep checkpointing: persist completed runs, resume without rework.

A checkpoint is a JSON-lines file: one self-contained record per
completed run key, appended (and flushed) the moment the run finishes,
so a sweep killed mid-flight keeps everything it already paid for.
Each record carries the run key, the full
:class:`~repro.core.platform.MeasurementResult`, and the run's isolated
metrics snapshot — the same snapshot a pool worker ships back — so a
resumed sweep reconstructs both the results *and* the merged metrics
registry bit-identically to an uninterrupted pass.

Record layout (one JSON object per line)::

    {"schema": "repro.sweep_checkpoint/v1",
     "key": {"benchmark": ..., "collector": ..., "instances": ...,
             "dataset": ..., "mode": ..., "llc_size": ..., "scale": ...,
             "placement": ...},
     "result": {<MeasurementResult fields>},
     "metrics": {<MetricsRegistry.as_dict() snapshot>}}

Unreadable lines (a record cut short by the kill) are skipped on load:
the worst case is re-running the interrupted key.  A *torn trailing*
record — the file does not end in a newline because the writer died
between ``write`` and ``fsync`` — is salvaged explicitly: every
complete record before it loads normally, the torn tail is reported
(tracer event + ``checkpoint.torn_tail`` metric + a narrated warning),
and the next :meth:`SweepCheckpoint.append` truncates the tail first so
a fresh record can never fuse with the partial line and poison both.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, Optional, Tuple

from repro.core.platform import EmulationMode, MeasurementResult
from repro.observability.log import get_logger
from repro.observability.metrics import METRICS
from repro.observability.trace import TRACER
from repro.runtime.jvm import RuntimeStats

#: Bump when the record layout changes incompatibly.
CHECKPOINT_SCHEMA = "repro.sweep_checkpoint/v1"


def salvage_jsonl(path: str) -> Tuple[List[str], bool]:
    """Read a JSONL file, salvaging around a torn trailing record.

    Returns ``(complete_lines, torn_tail)``: every newline-terminated
    line (undecoded), and whether the file ended mid-record.  A torn
    tail is the signature of a crash between ``write`` and ``fsync``;
    it is counted (``checkpoint.torn_tail``), traced, and warned about —
    but never fatal, because every record is self-contained.
    """
    if not os.path.exists(path):
        return [], False
    with open(path, "rb") as handle:
        raw = handle.read()
    torn = bool(raw) and not raw.endswith(b"\n")
    if torn:
        cut = raw.rfind(b"\n") + 1
        tail_bytes = len(raw) - cut
        raw = raw[:cut]
        METRICS.inc("checkpoint.torn_tail")
        if TRACER.enabled:
            TRACER.event("checkpoint.torn_tail", path=path,
                         bytes=tail_bytes)
        get_logger().warning(
            "checkpoint %s: torn trailing record (%d bytes) salvaged "
            "around; the interrupted entry will be redone", path,
            tail_bytes)
    return raw.decode("utf-8", errors="replace").splitlines(), torn


def repair_jsonl_tail(path: str) -> bool:
    """Truncate a torn trailing record so appends cannot fuse with it.

    Without this, the next append would land on the same line as the
    partial record and JSON-poison *both* — the torn tail and the brand
    new record.  Returns True when a repair happened.
    """
    try:
        with open(path, "rb+") as handle:
            handle.seek(0, os.SEEK_END)
            if handle.tell() == 0:
                return False
            handle.seek(-1, os.SEEK_END)
            if handle.read(1) == b"\n":
                return False
            handle.seek(0)
            raw = handle.read()
            handle.truncate(raw.rfind(b"\n") + 1)
    except FileNotFoundError:
        return False
    METRICS.inc("checkpoint.tail_repaired")
    if TRACER.enabled:
        TRACER.event("checkpoint.tail_repaired", path=path)
    return True


def result_to_dict(result: MeasurementResult) -> Dict:
    """JSON-serialisable form of a measurement (lossless round-trip)."""
    return {
        "benchmark": result.benchmark,
        "collector": result.collector,
        "mode": result.mode.value,
        "instances": result.instances,
        "pcm_write_lines": result.pcm_write_lines,
        "dram_write_lines": result.dram_write_lines,
        "elapsed_seconds": result.elapsed_seconds,
        "per_tag_pcm_writes": dict(result.per_tag_pcm_writes),
        "per_tag_dram_writes": dict(result.per_tag_dram_writes),
        "instance_stats": [
            {"minor_gcs": s.minor_gcs, "full_gcs": s.full_gcs,
             "observer_collections": s.observer_collections,
             "bytes_allocated": s.bytes_allocated,
             "bytes_copied": s.bytes_copied,
             "objects_allocated": s.objects_allocated,
             "objects_promoted": s.objects_promoted,
             "large_migrations": s.large_migrations,
             "mutator_cycles": s.mutator_cycles,
             "gc_cycles": s.gc_cycles,
             "pauses": list(s.pauses)}
            for s in result.instance_stats],
        "monitor_rates_mbs": list(result.monitor_rates_mbs),
        "wear_efficiency": result.wear_efficiency,
        "wear_imbalance": result.wear_imbalance,
        "node_counters": [dict(c) for c in result.node_counters],
        "llc_stats": [dict(s) for s in result.llc_stats],
        "qpi_crossings": result.qpi_crossings,
        "host_seconds": result.host_seconds,
        "profile": result.profile,
        "placement": result.placement,
        "pages_migrated": result.pages_migrated,
        "migration_writes": result.migration_writes,
        "migration_cycles": result.migration_cycles,
        "pcm_migration_write_lines": result.pcm_migration_write_lines,
        "dram_migration_write_lines": result.dram_migration_write_lines,
    }


def result_from_dict(data: Dict) -> MeasurementResult:
    stats = [RuntimeStats(**{k: v for k, v in entry.items()
                             if k != "pauses"})
             for entry in data["instance_stats"]]
    for entry, stat in zip(data["instance_stats"], stats):
        stat.pauses = list(entry.get("pauses", []))
    return MeasurementResult(
        benchmark=data["benchmark"],
        collector=data["collector"],
        mode=EmulationMode(data["mode"]),
        instances=data["instances"],
        pcm_write_lines=data["pcm_write_lines"],
        dram_write_lines=data["dram_write_lines"],
        elapsed_seconds=data["elapsed_seconds"],
        per_tag_pcm_writes=dict(data["per_tag_pcm_writes"]),
        per_tag_dram_writes=dict(data["per_tag_dram_writes"]),
        instance_stats=stats,
        monitor_rates_mbs=list(data["monitor_rates_mbs"]),
        wear_efficiency=data.get("wear_efficiency"),
        wear_imbalance=data.get("wear_imbalance"),
        node_counters=[dict(c) for c in data["node_counters"]],
        llc_stats=[dict(s) for s in data["llc_stats"]],
        qpi_crossings=data["qpi_crossings"],
        host_seconds=data.get("host_seconds", 0.0),
        profile=data.get("profile"),
        placement=data.get("placement", "static"),
        pages_migrated=data.get("pages_migrated", 0),
        migration_writes=data.get("migration_writes", 0),
        migration_cycles=data.get("migration_cycles", 0),
        pcm_migration_write_lines=data.get("pcm_migration_write_lines", 0),
        dram_migration_write_lines=data.get("dram_migration_write_lines", 0),
    )


# ----------------------------------------------------------------------
# Canonical forms: the simulated counters without host timing
# ----------------------------------------------------------------------

#: Result fields stripped by :func:`canonical_result` (host-dependent).
_NONCANONICAL_RESULT_FIELDS = ("host_seconds", "profile")


def canonical_result(result_dict: Dict) -> Dict:
    """Strip host-dependent fields from a serialised result.

    What remains is the simulated counters, bit-identical for identical
    inputs: the golden digests, the end-to-end benchmark and the sweep
    resume test all compare this form.
    """
    return {field: value for field, value in result_dict.items()
            if field not in _NONCANONICAL_RESULT_FIELDS}


class SweepCheckpoint:
    """Append-only JSONL store of completed ``RunKey -> result`` pairs.

    Every record carries its whole key, placement included, so a file
    needs no header.  Older files began with a ``"header"`` record (a
    placement and, before that, an engine stamp); :meth:`load` skips it.

    The key type is imported lazily to avoid a cycle with
    :mod:`repro.harness.experiment` (which owns :class:`RunKey`).
    """

    def __init__(self, path: str) -> None:
        self.path = path
        #: Records appended by this process (not counting loaded ones).
        self.appended = 0
        #: Set by :meth:`load`: the file ended in a torn (crash-cut)
        #: record that was salvaged around.
        self.torn_tail = False
        #: Set by :meth:`load`: complete lines that failed to parse.
        self.skipped = 0

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------
    def truncate(self) -> None:
        """Start the checkpoint over (a sweep not asked to resume)."""
        with open(self.path, "w", encoding="utf-8"):
            pass

    def append(self, key, result: MeasurementResult,
               metrics: Optional[Dict] = None) -> None:
        """Persist one completed run (flushed so a kill cannot lose it).

        A torn trailing record left by an earlier crash is truncated
        first — otherwise this record would share its line and both
        would be lost on the next load.
        """
        record = {
            "schema": CHECKPOINT_SCHEMA,
            "key": key.to_dict(),
            "result": result_to_dict(result),
            "metrics": metrics or {},
        }
        repair_jsonl_tail(self.path)
        with open(self.path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record, sort_keys=True) + "\n")
            handle.flush()
            os.fsync(handle.fileno())
        self.appended += 1

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def load(self) -> Dict:
        """``{RunKey: (MeasurementResult, metrics_snapshot)}`` on disk.

        Missing file -> empty dict.  A torn trailing record (crash
        mid-write) is salvaged around — every complete record loads,
        the tear is warned about via the tracer, and :attr:`torn_tail`
        is set.  Malformed complete lines are skipped and counted in
        :attr:`skipped` (the run they described is simply re-executed);
        later records for the same key win, matching append order.
        Header records of older files are skipped without counting.
        """
        from repro.harness.experiment import RunKey

        restored: Dict = {}
        self.torn_tail = False
        self.skipped = 0
        lines, self.torn_tail = salvage_jsonl(self.path)
        for line in lines:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
                if (record.get("schema") != CHECKPOINT_SCHEMA
                        or "header" in record):
                    continue
                key = RunKey.from_dict(record["key"])
                result = result_from_dict(record["result"])
            except (ValueError, KeyError, TypeError):
                self.skipped += 1
                METRICS.inc("checkpoint.skipped_records")
                if TRACER.enabled:
                    TRACER.event("checkpoint.skipped_record",
                                 path=self.path)
                continue  # unreadable record: re-run that key
            restored[key] = (result, record.get("metrics", {}))
        return restored
