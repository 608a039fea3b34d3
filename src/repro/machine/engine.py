"""Access-engine registry: the per-line oracle and the batched engine.

The simulator has two interchangeable *access engines* — ways of
pushing the same access stream through the same cache model with
bit-identical counters.  Both are eager: every access updates the
caches and counters before it returns.

``perline``
    The per-line oracle: every line goes through
    ``CacheLevel.access`` / ``CorePath.access_line`` individually.
    The differential-fuzz reference.
``batched``
    The default: page-runs go through the fused ``access_run`` loops
    (one Python frame per run).

The engine decides only which :class:`~repro.kernel.process.SimThread`
class ``Process.spawn_thread`` creates; caches and core paths are the
same objects under both.

Selection: explicit ``engine=`` arguments (``repro run --engine ...``)
win over the ``REPRO_ENGINE`` environment variable, which wins over the
default (``batched``).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Optional, Tuple

#: Environment variable consulted when no explicit engine is given.
ENGINE_ENV = "REPRO_ENGINE"
#: Registry order is also the CLI help order.
ENGINE_NAMES: Tuple[str, ...] = ("perline", "batched")
DEFAULT_ENGINE = "batched"

_DESCRIPTIONS = {
    "perline": "per-line oracle, one access per line",
    "batched": "fused per-run loops",
}


@dataclass(frozen=True)
class Engine:
    """A resolved access engine.

    ``kernel_name`` is always ``"none"``: no engine has a separate
    kernel backend.  It stays because the end-to-end benchmark
    (``benchmarks/e2e``) reports it next to the engine name.
    """

    name: str
    kernel_name: str = "none"


def engine_names() -> Tuple[str, ...]:
    """Valid engine names, in CLI presentation order."""
    return ENGINE_NAMES


def describe_engines() -> str:
    """One line per engine, for ``--help`` text."""
    return "; ".join(f"{n}: {_DESCRIPTIONS[n]}" for n in ENGINE_NAMES)


def resolve_engine(name: Optional[str] = None) -> Engine:
    """Resolve an engine name (or ``$REPRO_ENGINE``, or the default)."""
    requested = name or os.environ.get(ENGINE_ENV) or DEFAULT_ENGINE
    if requested not in ENGINE_NAMES:
        raise ValueError(
            f"unknown engine {requested!r}; choose from "
            f"{', '.join(ENGINE_NAMES)}")
    return Engine(name=requested)
