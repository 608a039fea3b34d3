"""Env-keyed fault shim for ``ExperimentRunner.sweep`` pool workers.

In-process hooks cannot model a *worker process* dying or wedging: the
victim is another interpreter.  Instead, ``_worker_run`` calls
:func:`maybe_fault` at entry, and tests arm it through the
``REPRO_WORKER_FAULTS`` environment variable (inherited by pool
workers).  No variable set -> one ``os.environ.get`` per worker task,
nothing else.

Spec grammar (a single spec per variable)::

    crash:benchmark=fop,collector=KG-N,attempts=1
    hang:benchmark=fop,seconds=30,attempts=1
    crashrate:p=0.2,seed=7,attempts=1

* ``crash`` —  ``os._exit(1)`` (the pool sees ``BrokenProcessPool``)
  when the run key matches every ``field=value`` filter and the
  harness-reported attempt number is ``<= attempts``.
* ``hang`` — sleep ``seconds`` (default 3600) under the same
  conditions; the harness's per-run timeout must rescue the sweep.
* ``crashrate`` — crash a deterministic ``p`` fraction of run keys
  (selected by hashing the key with ``seed``, stable across processes
  and interpreters) while ``attempt <= attempts``.  This is the chaos
  knob: every run of the same sweep kills the same keys on their first
  attempt, and retries succeed.

``attempts`` defaults to 1 so a retried key recovers — the common
transient-fault shape.  Use ``attempts=-1`` for a hard failure that
exhausts the pool attempts and reaches the in-process
``serial-fallback`` attempt (where the shim is not consulted).
"""

from __future__ import annotations

import hashlib
import os
import time
from typing import Dict

ENV_VAR = "REPRO_WORKER_FAULTS"

#: Run-key fields a spec may filter on, in hashing order.
_KEY_FIELDS = ("benchmark", "collector", "instances", "dataset", "mode",
               "llc_size", "scale")


def _parse(spec: str) -> Dict[str, str]:
    kind, _, rest = spec.partition(":")
    fields: Dict[str, str] = {"kind": kind.strip()}
    for part in rest.split(","):
        if "=" in part:
            key, value = part.split("=", 1)
            fields[key.strip()] = value.strip()
    return fields


def _key_fraction(key_fields: Dict[str, str], seed: str) -> float:
    """Deterministic [0, 1) value for a run key (stable across procs)."""
    text = seed + "|" + "|".join(
        f"{name}={key_fields[name]}" for name in _KEY_FIELDS)
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") / 2 ** 64


def _key_fields(key) -> Dict[str, str]:
    """A ``RunKey``'s filterable fields as the strings specs name."""
    fields = {name: str(getattr(key, name)) for name in _KEY_FIELDS}
    fields["mode"] = key.mode.value
    return fields


def maybe_fault(key, attempt: int) -> None:
    """Crash or hang this worker if the environment spec says so.

    ``key`` is the task's ``RunKey``; ``attempt`` is the harness's
    1-based attempt counter for the key (passed down so
    crash-on-first-attempt faults are deterministic even though pool
    workers are recycled between tasks).
    """
    spec = os.environ.get(ENV_VAR)
    if not spec:
        return
    fields = _parse(spec)
    key_fields = _key_fields(key)
    attempts = int(fields.get("attempts", "1"))
    if attempts >= 0 and attempt > attempts:
        return

    kind = fields["kind"]
    if kind == "crashrate":
        p = float(fields.get("p", "0.0"))
        if _key_fraction(key_fields, fields.get("seed", "0")) < p:
            os._exit(1)
        return

    for name in _KEY_FIELDS:
        if name in fields and fields[name] != key_fields[name]:
            return
    if kind == "crash":
        os._exit(1)
    elif kind == "hang":
        time.sleep(float(fields.get("seconds", "3600")))
