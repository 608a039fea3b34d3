"""Correctness tooling: invariant sanitizer + differential fuzzer.

Two instruments, one contract:

* :mod:`repro.sanitize.invariants` — the opt-in conservation-law
  checker (:data:`SANITIZE`).  Hook points across machine/kernel/
  runtime cost one ``is None`` test when it is not installed.
* :mod:`repro.sanitize.fuzz` — the differential fuzzer: seeded random
  traces replayed through both the access path and the per-line
  oracle on twin machines, with counter comparison and delta-debugging
  trace shrinking.

``fuzz`` pulls in the whole emulation stack, while instrumented hook
sites import :data:`SANITIZE` from :mod:`~repro.sanitize.invariants`
at module load — so this package imports the fuzzer lazily to stay
cycle-free.
"""

from repro.sanitize.invariants import (
    SANITIZE,
    InvariantViolation,
    Sanitizer,
    Violation,
)

__all__ = [
    "SANITIZE",
    "InvariantViolation",
    "Sanitizer",
    "Violation",
    "DifferentialFuzzer",
    "DivergenceReport",
    "TraceOp",
    "TraceReplayer",
    "generate_trace",
    "planted_bug",
    "shrink_trace",
]

_FUZZ_EXPORTS = {"DifferentialFuzzer", "DivergenceReport", "TraceOp",
                 "TraceReplayer", "generate_trace", "planted_bug",
                 "shrink_trace"}


def __getattr__(name):
    if name in _FUZZ_EXPORTS:
        from repro.sanitize import fuzz
        return getattr(fuzz, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
