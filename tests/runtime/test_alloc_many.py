"""``MutatorContext.alloc_many`` against ``count`` calls of ``alloc``.

Each case builds two identical VMs, allocates a batch on one with
``alloc_many`` and on the other with one ``alloc`` per object, and
requires the same machine state (node and cache counters, every
cache's lines and dirty bits, thread cycles, kernel counters), the same
``vm.stats``, the same ``ctx.rng`` state and the same heap contents,
both after the batch and after a flush.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List

import pytest

from repro.config import KB
from repro.faults.plan import FAULTS, FaultPlan
from repro.runtime.jvm import JavaVM, MutatorContext
from repro.runtime.objectmodel import LOS_THRESHOLD, object_size

from tests.conftest import build_test_machine, build_test_vm


def vm_state(vm: JavaVM, ctx: MutatorContext) -> Dict[str, object]:
    machine = vm.kernel.machine
    caches = [socket.llc for socket in machine.sockets]
    caches += [thread.core_path.private for thread in vm.process.threads
               if thread.core_path.private is not None]
    kernel = vm.kernel
    return {
        "nodes": [(node.read_lines, node.write_lines,
                   sorted(node.writes_by_tag.items()))
                  for node in machine.nodes],
        "caches": [(cache.stats.as_dict(), cache.flushed_dirty,
                    [list(cache_set.items()) for cache_set in cache._sets])
                   for cache in caches],
        "qpi": machine.qpi_crossings,
        "cycles": [thread.cycles for thread in vm.process.threads],
        "kernel": (kernel.page_faults, kernel.pages_mapped,
                   kernel.mmap_calls),
        "stats": dataclasses.asdict(vm.stats),
        "rng": ctx.rng.getstate(),
        "bump": vm.nursery.bump,
        "spaces": {name: [(obj.addr, obj.size, len(obj.refs), obj.space,
                           obj.is_large, obj.context)
                          for obj in space.live_objects()]
                   for name, space in vm.heap.spaces.items()},
    }


def run(batched: bool, count: int, scalar_bytes: int = 32,
        num_refs: int = 1, collector: str = "KG-W", noise: float = 0.0,
        private: bool = True, offset: int = 2) -> List[Dict[str, object]]:
    """Allocate the batch after some rooted objects; return the states
    after the batch and after a flush."""
    vm = build_test_vm(collector, machine=build_test_machine(
        private_l2=4 * KB if private else 0))
    vm.boot_noise_rate = noise
    ctx = vm.mutator(seed=3)
    ctx.use_thread(1)
    # Survivors for the collections, and a batch start ``offset``
    # words into a line.
    for _ in range(20):
        ctx.add_root(ctx.alloc(scalar_bytes=100, num_refs=2))
    while vm.nursery.bump % 64 != 4 * offset:
        ctx.alloc(scalar_bytes=0)
    error = None
    try:
        if batched:
            ctx.alloc_many(count, scalar_bytes=scalar_bytes,
                           num_refs=num_refs)
        else:
            for _ in range(count):
                ctx.alloc(scalar_bytes=scalar_bytes, num_refs=num_refs)
    except Exception as exc:  # noqa: BLE001 - compared, not handled
        error = (type(exc).__name__, str(exc))
    after_batch = vm_state(vm, ctx)
    after_batch["error"] = error
    ctx.alloc(scalar_bytes=16)  # the next allocation follows the batch
    vm.kernel.machine.flush_all(
        [thread.core_path for thread in vm.process.threads])
    return [after_batch, vm_state(vm, ctx)]


@pytest.fixture
def alloc_calls(monkeypatch):
    """Count ``MutatorContext.alloc`` calls made inside ``alloc_many``."""
    calls = {"alloc": 0, "inside": False}
    alloc = MutatorContext.alloc
    alloc_many = MutatorContext.alloc_many

    def spy_alloc(self, *args, **kwargs):
        if calls["inside"]:
            calls["alloc"] += 1
        return alloc(self, *args, **kwargs)

    def spy_alloc_many(self, *args, **kwargs):
        calls["inside"] = True
        try:
            return alloc_many(self, *args, **kwargs)
        finally:
            calls["inside"] = False

    monkeypatch.setattr(MutatorContext, "alloc", spy_alloc)
    monkeypatch.setattr(MutatorContext, "alloc_many", spy_alloc_many)
    return calls


#: name -> run() keyword arguments.
CASES: Dict[str, Dict[str, object]] = {
    "one-stretch": dict(count=40),
    "aligned-start": dict(count=40, offset=0),
    "48-byte-objects": dict(count=50, scalar_bytes=36),
    "line-sized-objects": dict(count=30, scalar_bytes=52),
    "one-word-objects": dict(count=90, scalar_bytes=0, num_refs=0),
    "llc-only-core": dict(count=60, private=False),
    "empty-batch": dict(count=0),
    "negative-count": dict(count=-3),
    # 44-byte objects, 16 KB nursery: two collections mid-batch.
    "gc-mid-batch": dict(count=1000),
    "gc-mid-batch-pcm-only": dict(count=1000, collector="PCM-Only"),
    "boot-noise-every-object": dict(count=30, noise=1.0),
    "boot-noise-and-gc": dict(count=900, noise=0.05),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_alloc_many_matches_alloc_per_object(name, alloc_calls):
    kwargs = CASES[name]
    batched = run(True, **kwargs)
    assert alloc_calls["alloc"] == 0  # the batch path, not a fallback
    assert batched == run(False, **kwargs)


def test_cases_reach_their_branch():
    after = run(True, **CASES["gc-mid-batch"])[0]
    assert after["stats"]["minor_gcs"] == 2
    size = object_size(32, 1)
    nursery_objects = after["spaces"]["nursery"]
    # The batch's last stretch starts the emptied nursery.
    assert len(nursery_objects) == (
        after["bump"] - nursery_objects[0][0]) // size
    assert all(obj[1] == size for obj in nursery_objects)
    after = run(True, **CASES["boot-noise-and-gc"])[0]
    assert after["stats"]["minor_gcs"] >= 2
    states = run(True, **CASES["boot-noise-every-object"])
    quiet = run(True, **CASES["one-stretch"])
    assert states[0]["rng"] != quiet[0]["rng"]


def test_large_objects_take_alloc(alloc_calls):
    kwargs = dict(count=3, scalar_bytes=LOS_THRESHOLD, noise=0.5)
    batched = run(True, **kwargs)
    assert alloc_calls["alloc"] == 3
    assert batched == run(False, **kwargs)
    assert batched[0]["stats"]["objects_allocated"] > 3


def test_write_profiler_takes_alloc(alloc_calls):
    kwargs = dict(count=25, collector="KG-CG")
    batched = run(True, **kwargs)
    assert alloc_calls["alloc"] == 25
    assert batched == run(False, **kwargs)
    # The profiler tagged the batch's objects.
    assert all(obj[-1] is not None
               for obj in batched[0]["spaces"]["nursery"])


def test_fault_plan_takes_alloc(alloc_calls):
    """Under an active plan every allocation arrives at its hook, so a
    fault that fires mid-batch leaves the per-object loop's state."""
    states = []
    for batched in (True, False):
        # The set-up allocates 20 to 36 objects, so the 50th allocation
        # is inside the 60-object batch.
        with FAULTS.installed(FaultPlan().add("runtime.alloc", at=50)):
            states.append(run(batched, count=60))
            # One arrival per allocated object, plus the one that raised.
            assert FAULTS.arrivals("runtime.alloc") == states[-1][1][
                "stats"]["objects_allocated"] + 1
    assert states[0] == states[1]
    assert states[0][0]["error"] is not None
    assert 0 < alloc_calls["alloc"] < 60
