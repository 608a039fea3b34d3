"""``SimThread.access_objects`` against the per-line oracle, in lockstep.

``access_objects(vaddr, size, count, is_write)`` zeroes ``count``
back-to-back objects with one touch over their union and counts each
object boundary that falls inside a line as one first-level hit.  Under
``per_line_oracle()`` it is one per-line walk per object instead, so
each step below runs on both sides and the whole machine state (every
counter, every cache's lines and dirty bits in LRU order, thread
cycles, kernel counters) must match after each one.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import pytest

from repro.config import PAGE_SIZE
from repro.machine.cache import CacheLevel
from repro.sanitize.fuzz import (
    DRAM_BASE,
    PCM_BASE,
    TraceOp,
    TraceReplayer,
    per_line_oracle,
)

from tests.kernel.test_single_page_access import (
    full_state,
    small_machine,
    touch,
    warm_ops,
)

#: Object sizes: one-word objects, GraphChi's 44-byte temporaries, a
#: size that divides a line pair, a line and a bit, and multi-line.
SIZES = (12, 44, 48, 100, 300)
#: Byte offsets of a stretch's first object into its first line.
OFFSETS = (0, 8, 52)
#: Objects per stretch, up to ones that cross several pages.
COUNTS = (1, 2, 3, 5, 16, 37, 70)

#: (thread, vaddr, size, count, is_write)
Stretch = Tuple[int, int, int, int, bool]


def zero(replayer: TraceReplayer, stretch: Stretch) -> int:
    thread, vaddr, size, count, is_write = stretch
    return replayer.threads[thread].access_objects(vaddr, size, count,
                                                   is_write)


def assert_lockstep(fast: TraceReplayer, oracle: TraceReplayer,
                    stretches: List[Stretch]) -> None:
    """Zero each stretch on both sides; cycles and states must match."""
    for stretch in stretches:
        cycles = zero(fast, stretch)
        with per_line_oracle():
            assert zero(oracle, stretch) == cycles, stretch
        assert full_state(fast) == full_state(oracle), stretch


def warmed(private: bool, placement: str = "static",
           ops: Optional[List[TraceOp]] = None
           ) -> Tuple[TraceReplayer, TraceReplayer]:
    """Twin replayers after ``ops`` (by default, half-dirty lines of
    every page in both sockets' caches)."""
    fast = TraceReplayer(placement=placement, machine=small_machine(private))
    oracle = TraceReplayer(placement=placement,
                           machine=small_machine(private))
    for op in warm_ops() if ops is None else ops:
        fast.apply(op)
        with per_line_oracle():
            oracle.apply(op)
    return fast, oracle


def sweep(is_write: bool) -> List[Stretch]:
    """Every size, offset and count, each stretch zeroed twice by one
    thread (the second pass re-touches lines the first left cached,
    with the other ``is_write``), threads and nodes taken in turn."""
    stretches = []
    index = 0
    for size in SIZES:
        for offset in OFFSETS:
            for count in COUNTS:
                base = DRAM_BASE if index % 2 == 0 else PCM_BASE
                # Start on page 0 or 1, near its end for the longer
                # stretches, so they cross one or more page boundaries.
                page = index % 2
                vaddr = base + page * PAGE_SIZE + offset
                if count > 3:
                    vaddr += PAGE_SIZE - 64 * (index % 5 + 1)
                thread = index % 3
                stretches.append((thread, vaddr, size, count, is_write))
                stretches.append((thread, vaddr, size, count, not is_write))
                index += 1
    return stretches


@pytest.mark.parametrize("private", [True, False],
                         ids=["private-cache", "llc-only"])
@pytest.mark.parametrize("is_write", [False, True], ids=["read", "write"])
def test_access_objects_matches_per_object_oracle(private, is_write):
    fast, oracle = warmed(private)
    stretches = sweep(is_write)
    assert_lockstep(fast, oracle, stretches)
    # The sweep crossed pages and ran the cache's whole miss path.
    assert any((vaddr >> 12) != ((vaddr + size * count - 1) >> 12)
               for _, vaddr, size, count, _ in stretches)
    llc = fast.machine.sockets[0].llc.stats
    assert llc.misses and llc.dirty_evictions
    assert fast.machine.node_writes(1) and fast.machine.qpi_crossings


@pytest.mark.parametrize("private", [True, False],
                         ids=["private-cache", "llc-only"])
def test_lazy_fault_inside_a_stretch_matches_oracle(private):
    # Pages 0-3 backed by first touch, pages 4-7 reserved only.
    fast, oracle = warmed(private, placement="first-touch", ops=[
        touch(DRAM_BASE + page * PAGE_SIZE, PAGE_SIZE, thread=page % 3)
        for page in range(4)])
    assert fast.kernel.page_faults == 4
    # 44-byte objects from 100 bytes before the end of page 5 into page
    # 6, neither touched yet: each faults in once, the second in the
    # middle of the stretch, and thread 2 backs them on its socket.
    start = DRAM_BASE + 6 * PAGE_SIZE - 100
    assert_lockstep(fast, oracle, [(2, start, 44, 60, True),
                                   (1, start, 44, 60, False)])
    assert fast.kernel.page_faults == 6
    assert fast.machine.nodes[1].frames_in_use == 3  # pages 2, 5 and 6


def test_empty_stretches_touch_nothing():
    fast, oracle = warmed(True)
    before = full_state(fast)
    assert_lockstep(fast, oracle, [(0, DRAM_BASE + 8, 44, 0, True),
                                   (0, DRAM_BASE + 8, 0, 5, True),
                                   (0, DRAM_BASE + 8, -4, 5, True)])
    assert full_state(fast) == before


@pytest.mark.parametrize("private", [True, False],
                         ids=["private-cache", "llc-only"])
def test_the_sweep_needs_the_boundary_hits(private, monkeypatch):
    """With ``CacheLevel.rehit`` dropping its hits, the comparison
    above fails: the re-touches it counts are real per-object hits."""
    monkeypatch.setattr(CacheLevel, "rehit", lambda self, times: None)
    fast, oracle = warmed(private)
    with pytest.raises(AssertionError):
        assert_lockstep(fast, oracle, sweep(True))


def test_hits_land_in_the_first_level():
    """Three 44-byte objects from a line start: two boundaries fall
    inside a line, so the private cache scores two hits beyond the
    union touch's, and the LLC none."""
    replayer = TraceReplayer(machine=small_machine(True))
    thread = replayer.threads[0]
    private = thread.core_path.private.stats
    llc = replayer.machine.sockets[0].llc.stats
    cycles = thread.access_objects(DRAM_BASE, 44, 3, True)
    # 132 bytes: three lines, all cold.
    assert (private.hits, private.misses) == (2, 3)
    assert (llc.hits, llc.misses) == (0, 3)
    assert cycles == thread.cycles
    latency = replayer.machine.latency
    assert cycles == 2 * latency.l2_hit + 3 * latency.local_dram
