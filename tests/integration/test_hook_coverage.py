"""Every fault site, sanitizer op and span path is reached by real runs.

The fault plans, the invariant sanitizer and the attribution profiler
only see what the simulation tells them: a hook deleted from a
state-changing operation makes that operation invisible to all three,
and no counter changes.  So one small instrumented run checks the
wiring end to end.  It is luindex under KG-W with the ``migrate``
placement, which takes nursery, observer and full collections and
moves pages, with

* a :class:`FaultPlan` that never fires (arrivals are still counted),
* :data:`SANITIZE`, non-strict, with its hook entries spied on,
* the attribution profiler on.

``Kernel.munmap`` and ``NumaMachine.flush_all`` have no caller in a
platform run, so the fuzzer's :class:`TraceReplayer` drives them under
the same instruments.
"""

import re

import pytest

from repro.faults import FAULTS, FaultPlan, plan
from repro.harness.experiment import ExperimentRunner
from repro.sanitize import SANITIZE
from repro.sanitize.fuzz import SLOT_BASE, TraceOp, TraceReplayer

#: ``(entry, site)`` of every call a hook site makes into
#: :data:`SANITIZE` (``site`` is ``None`` for entries that take none).
SANITIZER_OPS = {
    ("kernel_op", "mmap_bind"),
    ("kernel_op", "munmap"),
    ("kernel_op", "migrate"),
    ("kernel_op", "placement_tick"),
    ("kernel_op", "reclaim"),
    ("machine_op", "flush_all"),
    ("check_heap", "chunk_acquired"),
    ("gc_round", None),
    ("run_end", None),
}

#: Profiler span paths of the measured iteration.
SPAN_PATHS = {
    "(outside)",
    "run",
    "run/mutator",
    "run/mutator/gc.full",
    "run/mutator/gc.full/gc.mark",
    "run/mutator/gc.full/gc.observer",
    "run/mutator/gc.full/gc.promote",
    "run/mutator/gc.full/gc.sweep",
    "run/mutator/gc.full/gc.trace",
    "run/mutator/gc.minor",
    "run/mutator/gc.minor/gc.observer",
    "run/mutator/gc.minor/gc.promote",
    "run/mutator/gc.minor/gc.trace",
    "run/mutator/kernel.migrate",
    "run/mutator/monitor.sample",
}


def documented_fault_sites():
    """The site names in :mod:`repro.faults.plan`'s site table."""
    return re.findall(r"^``([a-z_.]+)``\s", plan.__doc__, re.MULTILINE)


class _SanitizerSpy:
    """Records the outermost sanitizer hook entries a run calls.

    Entries call each other (``gc_round`` runs ``check_heap``); only
    the calls the simulation makes count.
    """

    def __init__(self, monkeypatch):
        self.calls = set()
        self._depth = 0
        for entry in sorted({name for name, _ in SANITIZER_OPS}):
            monkeypatch.setattr(SANITIZE, entry,
                                self._wrap(entry, getattr(SANITIZE, entry)))

    def _wrap(self, entry, method):
        def spy(target, *args, **kwargs):
            if self._depth == 0:
                site = args[0] if entry in ("kernel_op", "machine_op",
                                            "check_heap") else None
                self.calls.add((entry, site))
            self._depth += 1
            try:
                return method(target, *args, **kwargs)
            finally:
                self._depth -= 1
        return spy


@pytest.fixture(scope="module")
def instrumented():
    """Run once under every instrument; yield what each one saw."""
    monkeypatch = pytest.MonkeyPatch()
    spy = _SanitizerSpy(monkeypatch)
    try:
        with FAULTS.installed(FaultPlan()), \
                SANITIZE.installed(strict=False):
            result = ExperimentRunner(profile=True).run(
                "luindex", "KG-W", placement="migrate")
            replayer = TraceReplayer()
            for op in (TraceOp("mmap", vaddr=SLOT_BASE, node=1),
                       TraceOp("munmap", vaddr=SLOT_BASE),
                       TraceOp("flush")):
                replayer.apply(op)
            arrivals = {site: FAULTS.arrivals(site)
                        for site in documented_fault_sites()}
    finally:
        monkeypatch.undo()
    return {"arrivals": arrivals, "sanitizer": spy.calls,
            "paths": set(result.profile["self"])}


class TestFaultSites:
    def test_site_table_is_parsed(self):
        sites = documented_fault_sites()
        assert len(sites) == len(set(sites))
        assert "kernel.munmap" in sites and "runtime.gc" in sites

    def test_every_documented_site_is_reached(self, instrumented):
        unreached = sorted(site for site, count
                           in instrumented["arrivals"].items()
                           if count == 0)
        assert unreached == [], f"fault sites never arrived: {unreached}"


class TestSanitizerOps:
    def test_every_hook_op_is_called(self, instrumented):
        missing = sorted(SANITIZER_OPS - instrumented["sanitizer"], key=str)
        assert not missing, f"sanitizer ops never called: {missing}"

    def test_no_unlisted_hook_op(self, instrumented):
        extra = sorted(instrumented["sanitizer"] - SANITIZER_OPS, key=str)
        assert not extra, f"unlisted sanitizer ops: {extra}"


class TestSpanTree:
    def test_span_paths_are_pinned(self, instrumented):
        paths = instrumented["paths"]
        assert paths == SPAN_PATHS, (
            f"new paths {sorted(paths - SPAN_PATHS)}, "
            f"lost paths {sorted(SPAN_PATHS - paths)}")
