"""Name of the simulator's one access engine, for the end-to-end benchmark.

The simulator has a single access path: ``SimThread.access`` /
``access_block`` push page-runs through the fused ``access_run`` loops.
The per-line walk it is checked against is a test oracle, reached only
through :func:`repro.sanitize.fuzz.per_line_oracle`.

This module exists because ``benchmarks/e2e/child.py`` calls
:func:`resolve_engine` and reports ``.name`` and ``.kernel_name``.  It
is that file's only caller; delete this module at the next change to
the benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Engine:
    """The access engine as the end-to-end benchmark reports it."""

    name: str
    kernel_name: str = "none"


def resolve_engine() -> Engine:
    """The one access engine (reads no environment variable)."""
    return Engine(name="batched")
