"""``SimThread.access`` on single-page touches vs the per-line oracle.

``access`` translates every touch with one page-table lookup.  A
one-line touch on a core with a private cache then runs the line's
private -> LLC -> memory sequence inline; any other touch inside one
virtual page is one ``CorePath.access_run`` call; only page-crossing
touches take ``access_block``.  Each case below replays the same steps
on the default path and under ``per_line_oracle()`` and requires
bit-identical node, LLC, private and QPI counters, ``writes_by_tag``,
thread cycles, kernel counters and per-step exceptions, both before
and after a final flush.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Tuple, Union

import pytest

from repro.config import KB, PAGE_SIZE
from repro.kernel.pagetable import PageFault
from repro.kernel.process import SimThread
from repro.kernel.vm import Kernel
from repro.machine.numa import CorePath
from repro.sanitize.fuzz import (
    DRAM_BASE,
    PCM_BASE,
    TraceOp,
    TraceReplayer,
    per_line_oracle,
)

from tests.conftest import build_test_machine

#: A page no case maps.
UNMAPPED = 0x900000

#: A step is a trace op or a callable on the replayer (cache set-up the
#: trace language cannot express; it runs identically on both sides).
Step = Union[TraceOp, Callable[[TraceReplayer], object]]


def touch(vaddr: int, size: int, is_write: bool = True,
          thread: int = 0) -> TraceOp:
    return TraceOp("access", thread=thread, vaddr=vaddr, size=size,
                   is_write=is_write)


# ----------------------------------------------------------------------
# Multi-line touches inside one page, on the emulation platform
# ----------------------------------------------------------------------

#: name -> (placement, ops).  The first op of "warm" cases touches the
#: page the multi-line touch then lands in.
CASES: Dict[str, Tuple[str, List[TraceOp]]] = {
    "multi-line-warm-tlb": ("static", [
        touch(DRAM_BASE + 8, 8),
        touch(DRAM_BASE + 100, 300),
        touch(DRAM_BASE + 40, 200, is_write=False),
        touch(PCM_BASE + 8, 8, thread=2),
        touch(PCM_BASE + 70, 500, thread=2),
    ]),
    "multi-line-cold-tlb": ("static", [
        # First touch of the thread, then a page it has not touched.
        touch(DRAM_BASE + 100, 300),
        touch(DRAM_BASE + 3 * PAGE_SIZE + 10, 250, is_write=False),
        touch(PCM_BASE + 2 * PAGE_SIZE + 64, 640, thread=1),
    ]),
    "remap-after-munmap": ("static", [
        touch(DRAM_BASE + 100, 300),
        touch(DRAM_BASE + 8, 8),
        TraceOp("munmap", vaddr=DRAM_BASE, pages=1),
        # Unmapped: both touches must fault like the oracle.
        touch(DRAM_BASE + 100, 300),
        touch(DRAM_BASE + 8, 8),
        TraceOp("mmap", vaddr=DRAM_BASE, pages=1, node=1),
        # Same vpage, now on node 1: the traffic must follow the page.
        touch(DRAM_BASE + 100, 300),
        touch(DRAM_BASE + 64, 128, is_write=False),
        touch(DRAM_BASE + 8, 8),
        touch(DRAM_BASE + 200, 4, is_write=False),
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


def run_steps(replayer: TraceReplayer, steps: List[Step]
              ) -> Tuple[Dict[str, object], Dict[str, object]]:
    """Apply ``steps``; return the snapshots before and after a flush."""
    for index, step in enumerate(steps):
        try:
            if isinstance(step, TraceOp):
                replayer.apply(step)
            else:
                step(replayer)
        except Exception as exc:  # noqa: BLE001 - compared, not handled
            replayer.exceptions.append((index, type(exc).__name__, str(exc)))
    before_flush = replayer.snapshot()
    replayer.machine.flush_all(replayer.core_paths)
    return before_flush, replayer.snapshot()


def run_case(placement: str, ops: List[TraceOp]
             ) -> Tuple[Dict[str, object], Dict[str, object], TraceReplayer]:
    replayer = TraceReplayer(placement=placement)
    before_flush, after_flush = run_steps(replayer, list(ops))
    return before_flush, after_flush, replayer


@pytest.mark.parametrize("name", sorted(CASES))
def test_access_matches_per_line_oracle(name):
    placement, ops = CASES[name]
    fast_before, fast_after, _ = run_case(placement, ops)
    with per_line_oracle():
        oracle_before, oracle_after, _ = run_case(placement, ops)
    assert fast_before == oracle_before
    assert fast_after == oracle_after


def counting(monkeypatch):
    """Count ``access_block``, ``CorePath.access_run`` and
    ``Kernel.fault_in`` calls."""
    calls = {"access_block": 0, "access_run": 0, "fault_in": 0}
    block = SimThread.access_block

    def spy_block(self, vaddr, size, is_write):
        calls["access_block"] += 1
        return block(self, vaddr, size, is_write)

    monkeypatch.setattr(SimThread, "access_block", spy_block)
    access_run = CorePath.access_run

    def spy_run(self, first_line, count, is_write):
        calls["access_run"] += 1
        return access_run(self, first_line, count, is_write)

    monkeypatch.setattr(CorePath, "access_run", spy_run)
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


def test_remapped_page_takes_the_new_frame():
    _, after, _ = run_case(*CASES["remap-after-munmap"])
    faults = [name for _, name, _ in after["exceptions"]]
    assert faults == ["PageFault", "PageFault"]
    # Reads after the remap hit node 1's memory from a socket-0 thread.
    assert after["node1.read_lines"] > 0
    assert after["qpi_crossings"] == after["node1.read_lines"]


def test_zero_size_touch_does_not_fault_or_touch_a_cache(monkeypatch):
    calls = counting(monkeypatch)
    replayer = TraceReplayer()
    thread = replayer.threads[0]
    thread.access(DRAM_BASE + 8, 8, True)
    before = replayer.snapshot()
    for vaddr, size in ((UNMAPPED, 0), (UNMAPPED + 64, 0),
                        (UNMAPPED + 128, -64), (DRAM_BASE + 128, 0)):
        assert thread.access(vaddr, size, True) == 0
    assert replayer.snapshot() == before
    assert calls == {"access_block": 0, "access_run": 0, "fault_in": 0}
    assert replayer.kernel.page_faults == 0


# ----------------------------------------------------------------------
# One-line touches, on a small machine with predictable cache sets
# ----------------------------------------------------------------------

#: ``build_test_machine(llc_size=16 KB, private_l2=4 KB)``: a 16-set,
#: 4-way private cache in front of a 32-set, 8-way LLC.  A fresh node
#: hands out frames in order, so the line ``k`` lines into the DRAM or
#: PCM base region sits in private set ``k % 16`` and LLC set ``k % 32``.
P_SETS, P_WAYS = 16, 4
L_SETS, L_WAYS = 32, 8


def small_machine(private: bool = True):
    return build_test_machine(llc_size=16 * KB,
                              private_l2=4 * KB if private else 0)


def line_at(base: int, k: int) -> int:
    """Virtual address of the ``k``-th line of a base region."""
    return base + 64 * k


def install_dirty_llc_lines(base: int, lines: List[int]):
    """A step: install lines of a base region dirty in socket 0's LLC."""
    def step(replayer: TraceReplayer) -> None:
        llc = replayer.machine.sockets[0].llc
        table = replayer.process.page_table
        for k in lines:
            llc.install_dirty(table.translate_line(line_at(base, k)))
    return step


#: name -> (has private cache, placement, steps).
ONE_LINE_CASES: Dict[str, Tuple[bool, str, List[Step]]] = {
    "private-hit": (True, "static", [
        touch(DRAM_BASE + 8, 8, is_write=False),
        # A write hit on a clean line must dirty it.
        touch(DRAM_BASE + 16, 8),
        touch(DRAM_BASE + 60, 4, is_write=False),
    ]),
    "llc-hit": (True, "static", [
        touch(DRAM_BASE + 8, 8),
        # Four more lines of private set 0 push the first one out to
        # the LLC.
        *[touch(line_at(DRAM_BASE, P_SETS * i), 8, is_write=False)
          for i in range(1, P_WAYS + 1)],
        touch(DRAM_BASE + 8, 8, is_write=False),
        # Line 1 the same way, but clean in the LLC when a write hits
        # it there: only the private copy turns dirty, so pushing line
        # 1 out of the LLC writes nothing back.
        touch(DRAM_BASE + 72, 8, is_write=False),
        *[touch(line_at(DRAM_BASE, 1 + P_SETS * i), 8, is_write=False)
          for i in range(1, P_WAYS + 1)],
        touch(DRAM_BASE + 72, 8),
        install_dirty_llc_lines(DRAM_BASE, [1 + L_SETS * k
                                            for k in range(1, L_WAYS + 1)]),
    ]),
    "dirty-victim-evicts-dirty-llc-line": (True, "static", [
        # Lines 16, 32, 48, 64 fill private set 0 with dirty lines;
        # line 16 is its LRU.
        *[touch(line_at(PCM_BASE, P_SETS * i), 8)
          for i in range(1, P_WAYS + 1)],
        # Eight dirty installs into LLC set 16 (lines 48, 80, ... 272)
        # dirty line 48 and push out the clean copy of line 16.
        install_dirty_llc_lines(PCM_BASE, [P_SETS + L_SETS * k
                                           for k in range(1, L_WAYS + 1)]),
        # Line 0 misses the private cache: line 16 is written back into
        # the full LLC set, which evicts dirty line 48 to memory.
        touch(PCM_BASE, 8, is_write=False),
    ]),
    "llc-miss-local": (True, "static", [
        touch(DRAM_BASE + 8, 8, is_write=False),
        touch(PCM_BASE + 8, 8, is_write=False, thread=2),
    ]),
    "llc-miss-remote": (True, "static", [
        touch(PCM_BASE + 8, 8),
        touch(DRAM_BASE + 8, 8, thread=2),
    ]),
    "no-private-cache": (False, "static", [
        touch(DRAM_BASE + 8, 8),
        touch(DRAM_BASE + 16, 8, is_write=False),
        touch(PCM_BASE + 8, 8),
        touch(DRAM_BASE + 8, 8, thread=2),
        *[touch(line_at(DRAM_BASE, L_SETS * i), 8)
          for i in range(1, L_WAYS + 2)],
    ]),
    "lazy-fault-in": (True, "first-touch", [
        touch(DRAM_BASE + 8, 8),
        touch(DRAM_BASE + 72, 8, is_write=False),
        touch(DRAM_BASE + PAGE_SIZE + 8, 8, thread=2),
    ]),
    "unbound-address": (True, "static", [
        touch(DRAM_BASE + 8, 8),
        touch(UNMAPPED + 64, 8),
        touch(UNMAPPED + 200, 4, is_write=False),
        touch(DRAM_BASE + 8, 8),
    ]),
    "last-line-of-page": (True, "static", [
        touch(DRAM_BASE + PAGE_SIZE - 8, 8),
        touch(DRAM_BASE + PAGE_SIZE - 64, 64, is_write=False),
        touch(PCM_BASE + 2 * PAGE_SIZE - 1, 1, thread=2),
    ]),
    "remap-after-munmap": (True, "static", [
        touch(DRAM_BASE + 8, 8),
        TraceOp("munmap", vaddr=DRAM_BASE, pages=1),
        touch(DRAM_BASE + 8, 8),
        TraceOp("mmap", vaddr=DRAM_BASE, pages=1, node=1),
        touch(DRAM_BASE + 8, 8),
        touch(DRAM_BASE + 72, 8, is_write=False),
    ]),
}


def run_one_line_case(name: str):
    private, placement, steps = ONE_LINE_CASES[name]
    replayer = TraceReplayer(placement=placement,
                             machine=small_machine(private))
    before_flush, after_flush = run_steps(replayer, steps)
    return before_flush, after_flush


@pytest.mark.parametrize("name", sorted(ONE_LINE_CASES))
def test_one_line_touch_matches_per_line_oracle(name):
    fast = run_one_line_case(name)
    with per_line_oracle():
        oracle = run_one_line_case(name)
    assert fast == oracle


@pytest.mark.parametrize("name", sorted(set(ONE_LINE_CASES)
                                        - {"no-private-cache"}))
def test_one_line_touches_stay_in_access(name, monkeypatch):
    calls = counting(monkeypatch)
    run_one_line_case(name)
    assert calls["access_run"] == 0
    assert calls["access_block"] == 0


def test_no_private_cache_takes_access_run(monkeypatch):
    calls = counting(monkeypatch)
    run_one_line_case("no-private-cache")
    assert calls["access_run"] == len(ONE_LINE_CASES["no-private-cache"][2])


def test_cases_reach_their_branch():
    """Each case exercises the cache path its name promises."""
    def before(name):
        return run_one_line_case(name)[0]

    snap = before("private-hit")
    assert snap["l2.t0"][:2] == (2, 1)  # hits, misses
    snap = before("llc-hit")
    assert snap["llc0"][0] == 2
    snap = before("dirty-victim-evicts-dirty-llc-line")
    assert snap["l2.t0"][3] == 1  # one dirty private eviction
    assert snap["node1.write_lines"] == 1
    assert snap["node1.writes_by_tag"] == (("fuzz.pcm", 1),)
    snap = before("llc-miss-local")
    assert snap["qpi_crossings"] == 0
    assert (snap["node0.read_lines"], snap["node1.read_lines"]) == (1, 1)
    snap = before("llc-miss-remote")
    assert snap["qpi_crossings"] == 2
    snap = before("no-private-cache")
    assert "l2.t0" not in snap and snap["llc0"][3] > 0
    snap = before("lazy-fault-in")
    assert snap["kernel"][4] == 2  # page faults
    assert snap["node1.frames_in_use"] == 1  # backed on socket 1


def test_unbound_address_faults_before_touching_anything():
    replayer = TraceReplayer(machine=small_machine())
    thread = replayer.threads[0]
    thread.access(DRAM_BASE + 8, 8, True)
    before = replayer.snapshot()
    with pytest.raises(PageFault) as info:
        thread.access(UNMAPPED + 64, 8, True)
    assert info.value.vaddr == UNMAPPED + 64
    after = replayer.snapshot()
    assert replayer.kernel.page_faults == 1  # counted, then raised
    del before["kernel"], after["kernel"]
    assert after == before
