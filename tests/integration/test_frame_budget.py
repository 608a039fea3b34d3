"""Python-frame budgets of the two hottest call chains.

Counted with ``sys.setprofile`` (Python ``call`` events only, C calls
are not frames), so the pins are deterministic and need no timing:

* a small nursery allocation with a warm TLB bump-allocates inline and
  zeroes the object through ``SimThread.access`` straight into
  ``CorePath.access_run``;
* one dirty LLC eviction costs exactly ``NumaMachine.memory_write`` and
  ``MemoryNode.record_write``.

A refactor that puts a frame back on either chain fails here even
when the timing-based hot-path gate cannot see it.
"""

from __future__ import annotations

import sys
from typing import Callable, List

from repro.config import KB

from tests.conftest import build_test_machine, build_test_vm


def python_frames(call: Callable[[], object]) -> List[str]:
    """Qualified names of the Python frames ``call`` enters, in order."""
    frames: List[str] = []

    def profile(frame, event, arg):
        if event == "call":
            frames.append(frame.f_code.co_qualname)

    sys.setprofile(profile)
    try:
        call()
    finally:
        sys.setprofile(None)
    assert frames[0].endswith("<lambda>")
    return frames[1:]  # the frames below the lambda under test


def test_warm_small_nursery_alloc_frames():
    vm = build_test_vm(machine=build_test_machine(private_l2=4 * KB))
    ctx = vm.mutator()
    ctx.alloc(scalar_bytes=16)  # warms the TLB on the nursery page
    nursery_bump = vm.nursery.bump

    frames = python_frames(lambda: ctx.alloc(scalar_bytes=16, num_refs=1))

    assert vm.nursery.bump > nursery_bump  # served by the inline bump
    # Write-backs the zeroing may push out of the LLC cost their own
    # two frames each (pinned below); everything else is fixed.
    chain = [name for name in frames
             if name not in ("NumaMachine.memory_write",
                             "MemoryNode.record_write")]
    assert chain == ["MutatorContext.alloc", "object_size", "Obj.__init__",
                     "SimThread.access", "CorePath.access_run"]
    assert frames.count("NumaMachine.memory_write") == \
        frames.count("MemoryNode.record_write")
    for slow in ("SimThread.access_block", "MutatorContext._alloc_nursery",
                 "ContiguousSpace.allocate"):
        assert slow not in frames


def test_one_dirty_llc_eviction_costs_two_frames():
    machine = build_test_machine(private_l2=4 * KB)
    core = machine.make_core(0)
    llc = core.socket.llc
    node = machine.nodes[1]
    frame = node.allocate_frame()
    node.tag_frame(frame, "mature.pcm")
    first = node.frame_to_paddr(frame) >> 6
    # Fill one LLC set with dirty lines, then read one more line that
    # maps to it: the private cache misses without evicting, and the
    # LLC evicts its dirty LRU line to memory.
    for way in range(llc.assoc):
        llc.install_dirty(first + way * llc.num_sets)

    frames = python_frames(
        lambda: core.access_run(first + llc.assoc * llc.num_sets, 1, False))

    assert frames == ["CorePath.access_run", "NumaMachine.memory_write",
                      "MemoryNode.record_write"]
    assert node.write_lines == 1
    assert node.writes_by_tag == {"mature.pcm": 1}
