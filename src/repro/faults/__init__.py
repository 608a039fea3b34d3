"""Fault injection: deterministic chaos for the emulation stack.

See :mod:`repro.faults.plan` for the in-process injector and hook-point
registry, and :mod:`repro.faults.worker` for the env-keyed shim that
crashes or hangs ``ExperimentRunner.sweep`` pool workers.
"""

from repro.faults.plan import (
    FAULTS,
    FaultError,
    FaultInjector,
    FaultPlan,
    FaultSpec,
    FiredFault,
    make_exception,
)

__all__ = [
    "FAULTS",
    "FaultError",
    "FaultInjector",
    "FaultPlan",
    "FaultSpec",
    "FiredFault",
    "make_exception",
]
