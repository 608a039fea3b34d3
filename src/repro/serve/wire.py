"""Wire schema for ``repro serve``: specs, digests, and payloads.

The service speaks plain JSON.  A client submits an *experiment spec*
(a benchmark x collector x instances grid plus platform knobs and a
seed); the service expands it to the same :class:`RunKey` grid the CLI
``sweep`` verb builds, executes it on the crash-tolerant sweep
machinery, and answers with a *result payload*.

Content addressing
------------------

Every spec has a digest: the SHA-256 of its canonical JSON identity
(sorted keys, no whitespace) — everything that can change the measured
numbers (benchmarks, collectors, instances, dataset, mode, llc_size,
scale) plus the client-chosen ``seed``.  The ``deadline`` is *not*
part of the identity: how long a client is willing to wait does not
change what the runs compute, so a retried submission with a different
deadline still hits the memo cache.

Canonical results
-----------------

Run results and merged metrics are canonicalised before they are
stored or compared: host-timing quantities (``host_seconds``,
``platform.run_host_seconds``), harness bookkeeping (``runner.*``) and
service bookkeeping (``serve.*``) are stripped, leaving only the
simulated counters that are bit-identical for identical inputs.  This
is what makes the chaos acceptance checkable: a 20 %-fault soak's
payloads equal an unfaulted serial sweep's, byte for byte.  The two
canonicalisers, :func:`canonical_result` and :func:`canonical_metrics`,
live in :mod:`repro.harness.checkpoint` and are re-exported here.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.config import DEFAULT_SCALE_CONFIG
from repro.core.collectors import ALL_COLLECTOR_NAMES
from repro.core.platform import EmulationMode
# canonical_metrics and canonical_result live with the checkpoint
# records; importers of this module keep finding them here.
from repro.harness.checkpoint import (
    canonical_metrics,
    canonical_result,
    result_to_dict,
)
from repro.harness.experiment import RunKey, SweepReport
from repro.observability.metrics import MetricsRegistry

#: Schema tags (bump on incompatible layout changes).
SPEC_SCHEMA = "repro.serve_spec/v1"
JOB_SCHEMA = "repro.serve_job/v1"
RESULT_SCHEMA = "repro.serve_result/v1"
HEALTH_SCHEMA = "repro.serve_health/v1"


class SpecError(ValueError):
    """A submitted spec failed validation (HTTP 400)."""


@dataclass(frozen=True)
class JobSpec:
    """One validated experiment submission."""

    benchmarks: Tuple[str, ...]
    collectors: Tuple[str, ...]
    instances: Tuple[int, ...]
    dataset: str = "default"
    mode: str = "emulation"
    llc_size: int = 0
    scale: int = DEFAULT_SCALE_CONFIG.scale
    seed: int = 0
    #: Per-job wall-clock budget in seconds (not part of the digest).
    deadline: Optional[float] = None

    @property
    def total_runs(self) -> int:
        return (len(self.benchmarks) * len(self.collectors)
                * len(self.instances))


def _unique(values: List) -> List:
    """Order-preserving dedupe (duplicate grid entries are harmless
    but would double-count runs in reports)."""
    seen = set()
    out = []
    for value in values:
        if value not in seen:
            seen.add(value)
            out.append(value)
    return out


def _str_list(payload: Dict, field: str, default: List[str]) -> List[str]:
    value = payload.get(field, default)
    if isinstance(value, str):
        value = [part.strip() for part in value.split(",") if part.strip()]
    if not isinstance(value, list) or not value or \
            not all(isinstance(item, str) and item for item in value):
        raise SpecError(f"{field} must be a non-empty list of strings")
    return _unique(value)


def parse_spec(payload: Dict) -> JobSpec:
    """Validate a client JSON payload into a :class:`JobSpec`.

    Raises :class:`SpecError` with a client-presentable message for
    anything malformed — unknown collectors or benchmarks, bad types,
    non-positive instance counts.
    """
    if not isinstance(payload, dict):
        raise SpecError("spec must be a JSON object")
    benchmarks = _str_list(payload, "benchmarks", ["lusearch"])
    collectors = _str_list(payload, "collectors", ["PCM-Only"])
    unknown = [c for c in collectors if c not in ALL_COLLECTOR_NAMES]
    if unknown:
        raise SpecError(f"unknown collectors: {', '.join(unknown)}")
    from repro.workloads.registry import benchmark_factory
    for benchmark in benchmarks:
        try:
            benchmark_factory(benchmark)
        except Exception as exc:  # noqa: BLE001 - surface as 400
            raise SpecError(f"unknown benchmark {benchmark!r}: {exc}")
    instances = payload.get("instances", [1])
    if isinstance(instances, int):
        instances = [instances]
    if not isinstance(instances, list) or not instances or \
            not all(isinstance(n, int) and not isinstance(n, bool)
                    and n >= 1 for n in instances):
        raise SpecError("instances must be a non-empty list of "
                        "integers >= 1")
    instances = _unique(instances)
    dataset = payload.get("dataset", "default")
    if dataset not in ("default", "large"):
        raise SpecError(f"unknown dataset {dataset!r}")
    mode = payload.get("mode", "emulation")
    if mode not in ("emulation", "simulation"):
        raise SpecError(f"unknown mode {mode!r}")
    llc_size = payload.get("llc_size", 0)
    if not isinstance(llc_size, int) or isinstance(llc_size, bool) \
            or llc_size < 0:
        raise SpecError("llc_size must be a non-negative integer")
    scale = payload.get("scale", DEFAULT_SCALE_CONFIG.scale)
    if not isinstance(scale, int) or isinstance(scale, bool) or scale < 1:
        raise SpecError("scale must be a positive integer")
    seed = payload.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise SpecError("seed must be an integer")
    deadline = payload.get("deadline")
    if deadline is not None:
        if not isinstance(deadline, (int, float)) \
                or isinstance(deadline, bool) or deadline <= 0:
            raise SpecError("deadline must be a positive number of "
                            "seconds")
        deadline = float(deadline)
    return JobSpec(benchmarks=tuple(benchmarks),
                   collectors=tuple(collectors),
                   instances=tuple(instances), dataset=dataset,
                   mode=mode, llc_size=llc_size, scale=scale,
                   seed=seed, deadline=deadline)


def spec_identity(spec: JobSpec) -> Dict:
    """The digest-relevant fields (everything but the deadline)."""
    return {
        "schema": SPEC_SCHEMA,
        "benchmarks": list(spec.benchmarks),
        "collectors": list(spec.collectors),
        "instances": list(spec.instances),
        "dataset": spec.dataset,
        "mode": spec.mode,
        "llc_size": spec.llc_size,
        "scale": spec.scale,
        "seed": spec.seed,
    }


def spec_to_dict(spec: JobSpec) -> Dict:
    """Full round-trippable form (identity plus the deadline)."""
    payload = spec_identity(spec)
    if spec.deadline is not None:
        payload["deadline"] = spec.deadline
    return payload


def spec_digest(spec: JobSpec) -> str:
    """Content address of a spec: SHA-256 over canonical identity JSON."""
    text = json.dumps(spec_identity(spec), sort_keys=True,
                      separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def expand_keys(spec: JobSpec) -> List[RunKey]:
    """The spec's run grid, in deterministic benchmark-major order —
    the same nesting the CLI ``sweep`` verb uses."""
    mode = (EmulationMode.EMULATION if spec.mode == "emulation"
            else EmulationMode.SIMULATION)
    return [RunKey(benchmark, collector, count, spec.dataset, mode,
                   spec.llc_size, spec.scale)
            for benchmark in spec.benchmarks
            for collector in spec.collectors
            for count in spec.instances]


def build_result_payload(spec: JobSpec, digest: str, report: SweepReport,
                         snapshots: Dict) -> Dict:
    """Assemble the ``repro.serve_result/v1`` payload for one job.

    ``snapshots`` maps run keys to their isolated worker metric
    snapshots (a :meth:`SweepCheckpoint.load` result or the raw
    ``{key: metrics}`` form).  Snapshots merge into a private registry
    in first-appearance key order — the same discipline the sweep
    itself uses — so the merged metrics are independent of pool
    scheduling and bit-identical to a serial pass.
    """
    merged = MetricsRegistry()
    seen = set()
    for outcome in report.outcomes:
        if outcome.key in seen:
            continue
        seen.add(outcome.key)
        entry = snapshots.get(outcome.key)
        if entry is None:
            continue
        # SweepCheckpoint.load() values are (result, metrics) pairs.
        metrics = entry[1] if isinstance(entry, tuple) else entry
        merged.merge(metrics)
    return {
        "schema": RESULT_SCHEMA,
        "digest": digest,
        "spec": spec_identity(spec),
        "ok": report.ok,
        "results": [canonical_result(result_to_dict(outcome.result))
                    if outcome.result is not None else None
                    for outcome in report.outcomes],
        "metrics": canonical_metrics(merged.as_dict()),
    }
