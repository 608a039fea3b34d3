"""Heap spaces: nursery, observer, Immix-style mature, LOS, metadata, boot.

A *space* is a coarse-grained heap partition whose objects share a
property (Section III-A).  Contiguous spaces (nursery, observer, boot,
metadata) are reserved at boot at fixed virtual addresses; mature and
large-object spaces acquire chunks from the free list matching their
memory kind (DRAM or PCM) at run time.

Every space carries ``in_dram`` — the flag the paper passes to the
space constructor to select DRAM versus PCM backing (Table I is encoded
by the collector configurations in :mod:`repro.core.collectors.policy`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator, List, Optional, Tuple

from repro.config import PAGE_SIZE
from repro.runtime.objectmodel import Obj

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.runtime.freelist import ChunkFreeList
    from repro.runtime.heap import HybridHeap


class Space:
    """Base class for heap spaces."""

    def __init__(self, name: str, heap: "HybridHeap", in_dram: bool) -> None:
        self.name = name
        self.heap = heap
        self.in_dram = in_dram

    @property
    def node(self) -> int:
        """NUMA node backing this space."""
        return self.heap.node_for(self.in_dram)

    def live_objects(self) -> Iterator[Obj]:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "DRAM" if self.in_dram else "PCM"
        return f"{type(self).__name__}({self.name}, {kind})"


class ContiguousSpace(Space):
    """A bump-allocated contiguous region (nursery, observer).

    The nursery sits at one end of virtual memory so the generational
    boundary write barrier is a single address compare.
    """

    def __init__(self, name: str, heap: "HybridHeap", in_dram: bool,
                 start: int, size: int) -> None:
        super().__init__(name, heap, in_dram)
        self.start = start
        self.size = size
        self.end = start + size
        self.bump = start
        self.objects: List[Obj] = []

    @property
    def bytes_used(self) -> int:
        return self.bump - self.start

    @property
    def bytes_free(self) -> int:
        return self.end - self.bump

    def allocate(self, size: int, num_refs: int) -> Optional[Obj]:
        """Bump-allocate; returns None when the space is exhausted."""
        addr = self.bump
        new_bump = addr + size
        if new_bump > self.end:
            return None
        self.bump = new_bump
        obj = Obj(addr, size, num_refs, self.name)
        self.objects.append(obj)
        return obj

    def adopt(self, obj: Obj, addr: int) -> None:
        """Install a copied-in object at ``addr`` (collector use)."""
        obj.addr = addr
        obj.space = self.name
        self.objects.append(obj)

    def reserve(self, size: int) -> Optional[int]:
        """Bump-reserve raw bytes, for collectors copying into here."""
        addr = self.bump
        if addr + size > self.end:
            return None
        self.bump = addr + size
        return addr

    def reset(self) -> None:
        """Reclaim the whole region (end of a copying collection)."""
        self.bump = self.start
        self.objects = []

    def contains_addr(self, vaddr: int) -> bool:
        return self.start <= vaddr < self.end

    def live_objects(self) -> Iterator[Obj]:
        return iter(self.objects)


#: Mature-space block size.  Scaled analogue of Immix's 32 KB block.
BLOCK_SIZE = 4096


class _Block:
    """One mark-region block: a bump region with hole recycling.

    After a full-heap sweep the free holes between surviving objects are
    rebuilt and become allocatable again — a byte-granularity stand-in
    for Immix line recycling.
    """

    __slots__ = ("addr", "objects", "gaps")

    def __init__(self, addr: int) -> None:
        self.addr = addr
        self.objects: List[Obj] = []
        self.gaps: List[Tuple[int, int]] = [(addr, BLOCK_SIZE)]

    def allocate(self, size: int) -> Optional[int]:
        """First-fit from this block's holes."""
        gaps = self.gaps
        for index, (gap_addr, gap_size) in enumerate(gaps):
            if gap_size >= size:
                if gap_size == size:
                    del gaps[index]
                else:
                    gaps[index] = (gap_addr + size, gap_size - size)
                return gap_addr
        return None

    def rebuild_gaps(self) -> None:
        """Recompute holes from the (already swept) object list."""
        gaps: List[Tuple[int, int]] = []
        cursor = self.addr
        for obj in sorted(self.objects, key=lambda o: o.addr):
            if obj.addr > cursor:
                gaps.append((cursor, obj.addr - cursor))
            cursor = obj.addr + obj.size
        block_end = self.addr + BLOCK_SIZE
        if cursor < block_end:
            gaps.append((cursor, block_end - cursor))
        self.gaps = gaps

    @property
    def free_bytes(self) -> int:
        return sum(size for _, size in self.gaps)


class MatureSpace(Space):
    """Mark-region (Immix-style) mature space built from chunks."""

    def __init__(self, name: str, heap: "HybridHeap", in_dram: bool) -> None:
        super().__init__(name, heap, in_dram)
        self.blocks: List[_Block] = []
        self._chunks: List[int] = []
        self._cursor = 0  # round-robin allocation cursor over blocks

    @property
    def freelist(self) -> "ChunkFreeList":
        return self.heap.freelist_for(self.in_dram)

    @property
    def bytes_committed(self) -> int:
        return len(self._chunks) * self.heap.chunk_size

    def _grow(self) -> bool:
        """Acquire one chunk and carve it into blocks."""
        if not self.heap.may_commit(self.heap.chunk_size):
            return False
        try:
            record = self.freelist.acquire(self.name)
        except Exception:
            return False
        self.heap.note_chunk_acquired(self, record)
        self._chunks.append(record.addr)
        for offset in range(0, record.size, BLOCK_SIZE):
            self.blocks.append(_Block(record.addr + offset))
        return True

    def allocate(self, size: int, num_refs: int) -> Optional[Obj]:
        addr = self._allocate_addr(size)
        if addr is None:
            return None
        obj = Obj(addr, size, num_refs, self.name)
        self._block_of(addr).objects.append(obj)
        return obj

    def adopt(self, obj: Obj) -> bool:
        """Copy-in an object from another space; returns False on OOM."""
        addr = self._allocate_addr(obj.size)
        if addr is None:
            return False
        obj.addr = addr
        obj.space = self.name
        self._block_of(addr).objects.append(obj)
        return True

    def _allocate_addr(self, size: int) -> Optional[int]:
        blocks = self.blocks
        count = len(blocks)
        for probe in range(count):
            block = blocks[(self._cursor + probe) % count]
            addr = block.allocate(size)
            if addr is not None:
                self._cursor = (self._cursor + probe) % count
                return addr
        if self._grow():
            addr = blocks[-1].allocate(size)
            if addr is not None:
                self._cursor = len(blocks) - 1
                return addr
        return None

    def _block_of(self, addr: int) -> _Block:
        # Blocks are appended chunk by chunk; do a reverse scan of the
        # chunk list (short) then index within the chunk.
        for chunk_addr in self._chunks:
            if chunk_addr <= addr < chunk_addr + self.heap.chunk_size:
                base_index = self._chunks.index(chunk_addr)
                blocks_per_chunk = self.heap.chunk_size // BLOCK_SIZE
                return self.blocks[base_index * blocks_per_chunk
                                   + (addr - chunk_addr) // BLOCK_SIZE]
        raise ValueError(f"address {addr:#x} not in {self.name}")

    def sweep(self, epoch: int) -> int:
        """Drop unmarked objects; free empty chunks.  Returns bytes freed."""
        freed = 0
        blocks_per_chunk = self.heap.chunk_size // BLOCK_SIZE
        for block in self.blocks:
            survivors = [obj for obj in block.objects if obj.mark == epoch]
            freed += sum(o.size for o in block.objects) - sum(
                o.size for o in survivors)
            block.objects = survivors
            block.rebuild_gaps()
        # Release chunks whose blocks are all empty.
        keep_chunks: List[int] = []
        keep_blocks: List[_Block] = []
        for index, chunk_addr in enumerate(self._chunks):
            chunk_blocks = self.blocks[index * blocks_per_chunk:
                                       (index + 1) * blocks_per_chunk]
            if any(block.objects for block in chunk_blocks):
                keep_chunks.append(chunk_addr)
                keep_blocks.extend(chunk_blocks)
            else:
                self.freelist.release(chunk_addr)
                self.heap.note_chunk_released(self)
        self._chunks = keep_chunks
        self.blocks = keep_blocks
        self._cursor = 0
        return freed

    def live_objects(self) -> Iterator[Obj]:
        for block in self.blocks:
            yield from block.objects


class LargeObjectSpace(Space):
    """Page-granular, non-moving space for large objects."""

    def __init__(self, name: str, heap: "HybridHeap", in_dram: bool) -> None:
        super().__init__(name, heap, in_dram)
        self.objects: List[Obj] = []
        self._free_runs: List[Tuple[int, int]] = []  # (addr, pages)
        self._chunks: List[int] = []

    @property
    def freelist(self) -> "ChunkFreeList":
        return self.heap.freelist_for(self.in_dram)

    @property
    def bytes_committed(self) -> int:
        return len(self._chunks) * self.heap.chunk_size

    def _grow(self) -> bool:
        if not self.heap.may_commit(self.heap.chunk_size):
            return False
        try:
            record = self.freelist.acquire(self.name)
        except Exception:
            return False
        self.heap.note_chunk_acquired(self, record)
        self._chunks.append(record.addr)
        # Coalesce with adjacent runs: consecutive fresh chunks are
        # virtually contiguous, letting objects span multiple chunks.
        self._release_pages(record.addr, record.size // PAGE_SIZE)
        return True

    def _allocate_pages(self, pages: int) -> Optional[int]:
        while True:
            for index, (addr, run_pages) in enumerate(self._free_runs):
                if run_pages >= pages:
                    if run_pages == pages:
                        del self._free_runs[index]
                    else:
                        self._free_runs[index] = (addr + pages * PAGE_SIZE,
                                                  run_pages - pages)
                    return addr
            if not self._grow():
                return None

    def allocate(self, size: int, num_refs: int) -> Optional[Obj]:
        pages = -(-size // PAGE_SIZE)
        addr = self._allocate_pages(pages)
        if addr is None:
            return None
        obj = Obj(addr, size, num_refs, self.name, is_large=True)
        self.objects.append(obj)
        return obj

    def adopt(self, obj: Obj) -> bool:
        """Copy-in a large object (KG-W moves written LOS objects)."""
        pages = -(-obj.size // PAGE_SIZE)
        addr = self._allocate_pages(pages)
        if addr is None:
            return False
        obj.addr = addr
        obj.space = self.name
        obj.is_large = True
        self.objects.append(obj)
        return True

    def release_object(self, obj: Obj, at_addr: Optional[int] = None) -> None:
        """Detach ``obj`` (being migrated elsewhere), freeing its pages.

        ``at_addr`` gives the object's address *in this space* when the
        caller has already re-homed it (``obj.addr`` then points at the
        destination).
        """
        self.objects.remove(obj)
        addr = obj.addr if at_addr is None else at_addr
        self._release_pages(addr, -(-obj.size // PAGE_SIZE))

    def _release_pages(self, addr: int, pages: int) -> None:
        self._free_runs.append((addr, pages))
        self._coalesce()

    def _coalesce(self) -> None:
        self._free_runs.sort()
        merged: List[Tuple[int, int]] = []
        for addr, pages in self._free_runs:
            if merged and merged[-1][0] + merged[-1][1] * PAGE_SIZE == addr:
                merged[-1] = (merged[-1][0], merged[-1][1] + pages)
            else:
                merged.append((addr, pages))
        self._free_runs = merged

    def sweep(self, epoch: int) -> int:
        """Free unmarked large objects; release empty chunks."""
        freed = 0
        survivors: List[Obj] = []
        for obj in self.objects:
            if obj.mark == epoch:
                survivors.append(obj)
            else:
                freed += obj.size
                self._release_pages(obj.addr, -(-obj.size // PAGE_SIZE))
        self.objects = survivors
        self._release_empty_chunks()
        return freed

    def _release_empty_chunks(self) -> None:
        chunk_size = self.heap.chunk_size
        pages_per_chunk = chunk_size // PAGE_SIZE
        keep: List[int] = []
        for chunk_addr in self._chunks:
            run = next((r for r in self._free_runs
                        if r[0] <= chunk_addr
                        and r[0] + r[1] * PAGE_SIZE >= chunk_addr + chunk_size),
                       None)
            if run is None:
                keep.append(chunk_addr)
                continue
            # Carve the chunk out of the run and hand it back.
            self._free_runs.remove(run)
            before_pages = (chunk_addr - run[0]) // PAGE_SIZE
            after_pages = run[1] - before_pages - pages_per_chunk
            if before_pages:
                self._free_runs.append((run[0], before_pages))
            if after_pages:
                self._free_runs.append((chunk_addr + chunk_size, after_pages))
            self.freelist.release(chunk_addr)
            self.heap.note_chunk_released(self)
        self._chunks = keep
        self._free_runs.sort()

    def live_objects(self) -> Iterator[Obj]:
        return iter(self.objects)


class MetadataSpace(Space):
    """Side metadata (mark bytes) covering another address range.

    Marking a live object writes one byte here; placing this space in
    DRAM is exactly the paper's MetaData Optimization (MDO).
    """

    def __init__(self, name: str, heap: "HybridHeap", in_dram: bool,
                 start: int, covered_start: int, covered_size: int) -> None:
        super().__init__(name, heap, in_dram)
        self.start = start
        self.covered_start = covered_start
        self.covered_size = covered_size
        self.size = covered_size >> 6
        self.end = start + self.size

    def mark_addr(self, obj_addr: int) -> int:
        """Metadata byte address for an object at ``obj_addr``."""
        offset = obj_addr - self.covered_start
        if not 0 <= offset < self.covered_size:
            raise ValueError(
                f"{self.name} does not cover address {obj_addr:#x}")
        return self.start + (offset >> 6)

    def live_objects(self) -> Iterator[Obj]:
        return iter(())


class BootSpace(ContiguousSpace):
    """The boot image: VM code, statics, and JIT-managed structures.

    The paper observes heavy writes to the boot image and keeps it in
    DRAM for every configuration except PCM-Only.
    """
