"""Python-frame budgets of the two hottest call chains.

Counted with ``sys.setprofile`` (Python ``call`` events only, C calls
are not frames), so the pins are deterministic and need no timing:

* a small one-line nursery allocation bump-allocates inline and zeroes
  the object inside ``SimThread.access``, with no frame below it;
* a warm ``read_ref`` of a one-line slot is ``SimThread.access`` alone;
* one dirty LLC eviction costs exactly ``NumaMachine.memory_write`` and
  ``MemoryNode.record_write``.

A refactor that puts a frame back on any of these chains fails here
even when the timing-based hot-path gate cannot see it.
"""

from __future__ import annotations

import sys
from typing import Callable, List

from repro.config import KB
from repro.runtime.objectmodel import HEADER_BYTES, REF_BYTES

from tests.conftest import build_test_machine, build_test_vm

#: The frames a dirty write-back adds wherever it happens (pinned by
#: the last test below).
WRITE_BACK = ("NumaMachine.memory_write", "MemoryNode.record_write")


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


def without_write_backs(frames: List[str]) -> List[str]:
    """``frames`` minus the write-back pairs the touch pushed out."""
    assert frames.count(WRITE_BACK[0]) == frames.count(WRITE_BACK[1])
    return [name for name in frames if name not in WRITE_BACK]


def one_line(addr: int, size: int) -> bool:
    return addr >> 6 == (addr + size - 1) >> 6


def test_warm_small_nursery_alloc_frames():
    vm = build_test_vm(machine=build_test_machine(private_l2=4 * KB))
    ctx = vm.mutator()
    ctx.alloc(scalar_bytes=16)  # first touch of the nursery page
    # Line the next object up with the start of a cache line.
    while vm.nursery.bump % 64:
        ctx.alloc(scalar_bytes=0)
    nursery_bump = vm.nursery.bump
    objects: List[object] = []

    frames = python_frames(
        lambda: objects.append(ctx.alloc(scalar_bytes=16, num_refs=1)))

    obj = objects[0]
    assert obj.addr == nursery_bump  # served by the inline bump
    assert one_line(obj.addr, obj.size)
    assert without_write_backs(frames) == [
        "MutatorContext.alloc", "object_size", "Obj.__init__",
        "SimThread.access"]


def test_warm_read_ref_is_one_frame():
    vm = build_test_vm(machine=build_test_machine(private_l2=4 * KB))
    ctx = vm.mutator()
    obj = ctx.alloc(scalar_bytes=16, num_refs=2)
    assert one_line(obj.addr + HEADER_BYTES, REF_BYTES)
    ctx.read_ref(obj, 0)  # warm: the slot's line is cached

    frames = python_frames(lambda: ctx.read_ref(obj, 0))

    assert without_write_backs(frames) == [
        "MutatorContext.read_ref", "SimThread.access"]


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
