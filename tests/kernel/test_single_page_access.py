"""``SimThread.access`` on single-page multi-line touches vs the oracle.

``access`` sends any touch whose first and last line share a virtual
page through one TLB probe and one ``CorePath.access_run`` call; only
page-crossing touches take ``access_block``.  Each case below replays
the same operations on the default path and under
``per_line_oracle()`` and requires bit-identical node, LLC and private
counters, thread cycles, kernel counters and per-op exceptions, both
before and after a final flush.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import pytest

from repro.config import PAGE_SIZE
from repro.kernel.process import SimThread
from repro.kernel.vm import Kernel
from repro.sanitize.fuzz import (
    DRAM_BASE,
    PCM_BASE,
    TraceOp,
    TraceReplayer,
    per_line_oracle,
)

#: A page no case maps.
UNMAPPED = 0x900000


def touch(vaddr: int, size: int, is_write: bool = True,
          thread: int = 0) -> TraceOp:
    return TraceOp("access", thread=thread, vaddr=vaddr, size=size,
                   is_write=is_write)


#: name -> (placement, ops).  The first op of "warm" cases primes the
#: software TLB on the page the multi-line touch then lands in.
CASES: Dict[str, Tuple[str, List[TraceOp]]] = {
    "multi-line-warm-tlb": ("static", [
        touch(DRAM_BASE + 8, 8),
        touch(DRAM_BASE + 100, 300),
        touch(DRAM_BASE + 40, 200, is_write=False),
        touch(PCM_BASE + 8, 8, thread=2),
        touch(PCM_BASE + 70, 500, thread=2),
    ]),
    "multi-line-cold-tlb": ("static", [
        # First touch of the thread, then a page the TLB does not hold.
        touch(DRAM_BASE + 100, 300),
        touch(DRAM_BASE + 3 * PAGE_SIZE + 10, 250, is_write=False),
        touch(PCM_BASE + 2 * PAGE_SIZE + 64, 640, thread=1),
    ]),
    "stale-epoch-after-remap": ("static", [
        touch(DRAM_BASE + 100, 300),
        TraceOp("munmap", vaddr=DRAM_BASE, pages=1),
        # Unmapped: the multi-line touch must fault like the oracle.
        touch(DRAM_BASE + 100, 300),
        TraceOp("mmap", vaddr=DRAM_BASE, pages=1, node=1),
        # Same vpage, now on node 1: a stale TLB would hit node 0.
        touch(DRAM_BASE + 100, 300),
        touch(DRAM_BASE + 64, 128, is_write=False),
    ]),
    "lazy-fault-in-first-touch": ("first-touch", [
        touch(DRAM_BASE + 100, 300),
        touch(DRAM_BASE + 200, 100, is_write=False),
        # A socket-1 thread backs its page locally on first touch.
        touch(DRAM_BASE + PAGE_SIZE + 8, 400, thread=2),
        touch(PCM_BASE + 3 * PAGE_SIZE + 1000, 900, thread=1),
    ]),
    "page-crossing": ("static", [
        touch(DRAM_BASE + 8, 8),
        touch(DRAM_BASE + PAGE_SIZE - 100, 300),
        touch(DRAM_BASE + 2 * PAGE_SIZE - 64, 2 * PAGE_SIZE,
              is_write=False),
    ]),
    "ends-on-last-line": ("static", [
        touch(DRAM_BASE + PAGE_SIZE - 200, 200),
        touch(DRAM_BASE + 2 * PAGE_SIZE - 64, 64, is_write=False),
        touch(DRAM_BASE + 2 * PAGE_SIZE, PAGE_SIZE),
    ]),
    "zero-size-unmapped": ("static", [
        touch(UNMAPPED, 0),
        touch(UNMAPPED + 64, 0),
        touch(UNMAPPED + 128, -64),
        touch(DRAM_BASE + 128, 0),
    ]),
}


def run_case(placement: str, ops: List[TraceOp]
             ) -> Tuple[Dict[str, object], Dict[str, object], TraceReplayer]:
    replayer = TraceReplayer(placement=placement)
    for index, op in enumerate(ops):
        try:
            replayer.apply(op)
        except Exception as exc:  # noqa: BLE001 - compared, not handled
            replayer.exceptions.append((index, type(exc).__name__, str(exc)))
    before_flush = replayer.snapshot()
    replayer.machine.flush_all(replayer.core_paths)
    return before_flush, replayer.snapshot(), replayer


@pytest.mark.parametrize("name", sorted(CASES))
def test_access_matches_per_line_oracle(name):
    placement, ops = CASES[name]
    fast_before, fast_after, _ = run_case(placement, ops)
    with per_line_oracle():
        oracle_before, oracle_after, _ = run_case(placement, ops)
    assert fast_before == oracle_before
    assert fast_after == oracle_after


def counting(monkeypatch):
    """Count ``access_block`` calls and ``Kernel.fault_in`` calls."""
    calls = {"access_block": 0, "fault_in": 0}
    block = SimThread.access_block

    def spy_block(self, vaddr, size, is_write):
        calls["access_block"] += 1
        return block(self, vaddr, size, is_write)

    monkeypatch.setattr(SimThread, "access_block", spy_block)
    fault_in = Kernel.fault_in

    def spy_fault_in(self, *args, **kwargs):
        calls["fault_in"] += 1
        return fault_in(self, *args, **kwargs)

    monkeypatch.setattr(Kernel, "fault_in", spy_fault_in)
    return calls


@pytest.mark.parametrize("name", ["multi-line-warm-tlb",
                                  "multi-line-cold-tlb",
                                  "ends-on-last-line"])
def test_single_page_touches_skip_access_block(name, monkeypatch):
    placement, ops = CASES[name]
    calls = counting(monkeypatch)
    run_case(placement, ops)
    assert calls["access_block"] == 0


def test_page_crossing_touches_take_access_block(monkeypatch):
    calls = counting(monkeypatch)
    run_case(*CASES["page-crossing"])
    assert calls["access_block"] == 2


def test_lazy_fault_in_once_per_page(monkeypatch):
    calls = counting(monkeypatch)
    _, after, replayer = run_case(*CASES["lazy-fault-in-first-touch"])
    assert calls["fault_in"] == 3
    assert replayer.kernel.page_faults == 3
    assert after["exceptions"] == ()


def test_zero_size_touch_does_not_fault_or_touch_the_tlb(monkeypatch):
    calls = counting(monkeypatch)
    replayer = TraceReplayer()
    thread = replayer.threads[0]
    thread.access(DRAM_BASE + 8, 8, True)  # primes the TLB
    tlb = (thread._tlb_vpage, thread._tlb_base, thread._tlb_epoch)
    cycles = thread.cycles
    for vaddr, size in ((UNMAPPED, 0), (UNMAPPED + 64, 0),
                        (UNMAPPED + 128, -64), (DRAM_BASE + 128, 0)):
        assert thread.access(vaddr, size, True) == 0
    assert (thread._tlb_vpage, thread._tlb_base, thread._tlb_epoch) == tlb
    assert thread.cycles == cycles
    assert calls == {"access_block": 0, "fault_in": 0}
    assert replayer.kernel.page_faults == 0
