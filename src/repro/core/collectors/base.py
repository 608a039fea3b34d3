"""Collector machinery shared by GenImmix and the Kingsguard family.

The base class implements the generational protocol of Section II-B:

* **minor collection** — trace from roots and the remembered set,
  copying live nursery objects to the collector-specific promotion
  target; for KG-W variants, an *observer collection* first evacuates
  the observer space, segregating written objects to DRAM mature and
  unwritten ones to PCM mature.
* **full-heap collection** — evacuate the young spaces, then mark the
  whole object graph (each mark writes a side-metadata byte — the
  writes MDO redirects to DRAM) and sweep the mark-region mature and
  large-object spaces.

All tracing and copying generates real simulated memory traffic on the
VM's garbage-collector threads, so collector overheads (e.g. KG-W's
observer copying) show up in both write counts and execution time.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Set, Tuple

from repro.observability.trace import TRACER
from repro.runtime.heap import OutOfMemoryError
from repro.runtime.objectmodel import HEADER_BYTES, REF_BYTES, Obj
from repro.runtime.spaces import ContiguousSpace, Space

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.collectors.policy import CollectorConfig
    from repro.kernel.process import SimThread
    from repro.runtime.jvm import JavaVM


class Collector:
    """Base class for all collectors."""

    #: Writes observed on a PCM large object before KG-W migrates it to
    #: the DRAM large space during a full collection.
    LARGE_MIGRATION_WRITES = 4

    def __init__(self, config: "CollectorConfig") -> None:
        self.config = config

    # ------------------------------------------------------------------
    # Heap construction (Table I)
    # ------------------------------------------------------------------
    def attach(self, vm: "JavaVM") -> None:
        """Create this configuration's spaces on the VM's heap."""
        config = self.config
        heap = vm.heap
        heap.make_boot(config.boot_in_dram)
        heap.make_metadata(pcm_meta_in_dram=config.mdo,
                           dram_meta_in_dram=config.boot_in_dram)
        heap.make_nursery(config.nursery_in_dram)
        if config.has_observer:
            heap.make_observer(True)
        heap.make_mature("mature.pcm", False)
        if config.dram_mature:
            heap.make_mature("mature.dram", True)
        heap.make_los("large.pcm", False)
        if config.dram_los:
            heap.make_los("large.dram", True)

    # ------------------------------------------------------------------
    # Allocation policy hooks
    # ------------------------------------------------------------------
    def nursery_promotion_target(self, vm: "JavaVM", obj: Obj) -> Space:
        """Space receiving non-large nursery survivors."""
        raise NotImplementedError

    def allocate_large(self, vm: "JavaVM", size: int, num_refs: int,
                       thread: "SimThread") -> Obj:
        """Allocate a large object.

        With LOO enabled, large objects that fit comfortably are first
        allocated in the nursery to give them time to die (the paper's
        heuristic); the rest go straight to the PCM large space.
        """
        nursery = vm.nursery
        if self.config.loo and size <= nursery.size // 8:
            obj = nursery.allocate(size, num_refs)
            while obj is None:
                vm.minor_collect()
                obj = nursery.allocate(size, num_refs)
            obj.is_large = True
            return obj
        los = vm.heap.space("large.pcm")
        obj = los.allocate(size, num_refs)
        if obj is None:
            vm.full_collect()
            obj = los.allocate(size, num_refs)
            if obj is None:
                raise OutOfMemoryError(
                    f"large allocation of {size} B exceeds heap budget")
        return obj

    # ------------------------------------------------------------------
    # Minor (nursery) collection
    # ------------------------------------------------------------------
    def minor_collect(self, vm: "JavaVM", force_observer: bool = False) -> None:
        nursery = vm.nursery
        observer = vm.observer
        collect_observer = observer is not None and (
            force_observer or observer.bytes_free < nursery.bytes_used)
        frame = TRACER.push("gc.trace")
        try:
            nursery_live, observer_live = self._trace_young(
                vm, collect_observer)
        finally:
            TRACER.pop(frame)
        if collect_observer:
            frame = TRACER.push("gc.observer")
            try:
                for obj in observer_live:
                    self._tenure_observer(vm, obj)
                observer.reset()
                vm.stats.observer_collections += 1
            finally:
                TRACER.pop(frame, collector=self.config.name,
                           survivors=len(observer_live))
        frame = TRACER.push("gc.promote")
        try:
            for obj in nursery_live:
                self._promote_nursery(vm, obj)
        finally:
            TRACER.pop(frame, survivors=len(nursery_live))
        nursery.reset()
        # Any survivor that left the young region (observer tenure, or
        # pretenured straight to mature) may still reference young
        # objects: it must enter the remembered set or those referents
        # would be lost at the next young collection.  rebuild_remset
        # immediately prunes the ones with no young references.
        boundary = vm.young_boundary
        for obj in nursery_live + observer_live:
            if obj.addr < boundary and not obj.in_remset:
                obj.in_remset = True
                vm.remset.append(obj)
        vm.rebuild_remset()

    def _trace_young(self, vm: "JavaVM",
                     include_observer: bool) -> Tuple[List[Obj], List[Obj]]:
        """Find live young objects, reading roots and the remset."""
        visited: Set[int] = set()
        nursery_live: List[Obj] = []
        observer_live: List[Obj] = []
        stack: List[Obj] = [r for r in vm.roots if r is not None]
        # Scan remembered-set sources: old objects that may reference
        # young ones.  Reading their reference slots is real traffic.
        for src in vm.remset:
            vm.gc_thread().access(
                src.addr, HEADER_BYTES + REF_BYTES * len(src.refs), False)
            stack.extend(ref for ref in src.refs if ref is not None)
        while stack:
            obj = stack.pop()
            oid = id(obj)
            if oid in visited:
                continue
            visited.add(oid)
            space = obj.space
            if space == "nursery":
                nursery_live.append(obj)
            elif space == "observer":
                if include_observer:
                    observer_live.append(obj)
            else:
                # Old objects are not scanned during a minor collection;
                # the remembered set covers old-to-young references.
                continue
            if obj.refs:
                vm.gc_thread().access(
                    obj.addr, HEADER_BYTES + REF_BYTES * len(obj.refs), False)
                stack.extend(ref for ref in obj.refs if ref is not None)
        return nursery_live, observer_live

    def _promote_nursery(self, vm: "JavaVM", obj: Obj) -> None:
        thread = vm.gc_thread()
        thread.access(obj.addr, obj.size, False)
        if obj.is_large:
            self._adopt_with_retry(vm, vm.heap.space("large.pcm"), obj)
        else:
            target = self.nursery_promotion_target(vm, obj)
            if isinstance(target, ContiguousSpace):
                addr = target.reserve(obj.size)
                if addr is not None:
                    target.adopt(obj, addr)
                else:
                    # Observer overflow: pretenure straight to mature.
                    self._adopt_with_retry(
                        vm, vm.heap.space("mature.pcm"), obj)
            else:
                self._adopt_with_retry(vm, target, obj)
        thread.access(obj.addr, obj.size, True)
        obj.age += 1
        vm.stats.bytes_copied += obj.size
        vm.stats.objects_promoted += 1

    def _tenure_observer(self, vm: "JavaVM", obj: Obj) -> None:
        """Copy one live observer object to its mature space."""
        target_name = ("mature.dram"
                       if self.config.dram_mature and obj.write_count > 0
                       else "mature.pcm")
        thread = vm.gc_thread()
        thread.access(obj.addr, obj.size, False)
        self._adopt_with_retry(vm, vm.heap.space(target_name), obj)
        thread.access(obj.addr, obj.size, True)
        obj.age += 1
        vm.stats.bytes_copied += obj.size

    def _adopt_with_retry(self, vm: "JavaVM", space: Space,
                          obj: Obj) -> None:
        if space.adopt(obj):
            return
        # Emergency full-heap mark/sweep, then retry once.
        self.mark_and_sweep(vm)
        if space.adopt(obj):
            return
        raise OutOfMemoryError(
            f"{space.name} cannot absorb {obj.size} B even after full GC")

    # ------------------------------------------------------------------
    # Full-heap collection
    # ------------------------------------------------------------------
    def full_collect(self, vm: "JavaVM") -> None:
        self.minor_collect(vm, force_observer=True)
        self.mark_and_sweep(vm)
        self.post_full_collection(vm)

    def mark_and_sweep(self, vm: "JavaVM") -> int:
        """Mark every reachable object, then sweep mature/large spaces.

        Marking writes one side-metadata byte per live object — the GC
        writes to PCM that the MetaData Optimization eliminates.
        Returns the number of bytes swept.
        """
        heap = vm.heap
        heap.gc_epoch += 1
        epoch = heap.gc_epoch
        marked = 0
        frame = TRACER.push("gc.mark")
        try:
            stack: List[Obj] = [r for r in vm.roots if r is not None]
            while stack:
                obj = stack.pop()
                if obj.mark == epoch:
                    continue
                obj.mark = epoch
                marked += 1
                thread = vm.gc_thread()
                num_refs = len(obj.refs)
                thread.access(obj.addr, HEADER_BYTES + REF_BYTES * num_refs,
                              False)
                thread.access(heap.mark_addr(obj), 1, True)
                if num_refs:
                    stack.extend(ref for ref in obj.refs if ref is not None)
        finally:
            TRACER.pop(frame, marked=marked)
        freed = 0
        frame = TRACER.push("gc.sweep")
        try:
            for space in heap.chunked_spaces():
                freed += space.sweep(epoch)
        finally:
            TRACER.pop(frame, freed_bytes=freed)
        # Drop remset entries whose source died.
        survivors: List[Obj] = []
        for src in vm.remset:
            if src.mark == epoch:
                survivors.append(src)
            else:
                src.in_remset = False
        vm.remset = survivors
        vm.stats.full_gcs += 1
        return freed

    def post_full_collection(self, vm: "JavaVM") -> None:
        """Hook for configuration-specific work after a full GC."""
