"""Per-process page tables translating virtual pages to physical frames.

Translation happens on every simulated memory access, so the table keeps
a flat ``dict`` from virtual page number to the *physical line base* of
the mapped frame — one dict lookup plus shift/mask per access.
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional, Tuple

from repro.config import PAGE_SHIFT

#: Lines per page (PAGE_SIZE / LINE_SIZE).
LINES_PER_PAGE_SHIFT = PAGE_SHIFT - 6
LINE_OFFSET_MASK = (1 << LINES_PER_PAGE_SHIFT) - 1

#: Sentinel distinguishing "no reservation" from a ``None`` tag.
_MISSING: object = object()


class PageFault(Exception):
    """Access to an unmapped virtual address."""

    def __init__(self, vaddr: int) -> None:
        super().__init__(f"page fault at {vaddr:#x}")
        self.vaddr = vaddr


class PageTable:
    """Virtual page -> (node, frame) mapping for one process."""

    def __init__(self) -> None:
        #: vpage -> physical line base (paddr >> 6 of the frame start).
        #: A plain attribute so the hot access loops translate with one
        #: dict lookup; only this class mutates it.
        self.line_base_map: Dict[int, int] = {}
        # vpage -> (node_id, frame) for unmapping and introspection
        self._entries: Dict[int, Tuple[int, int]] = {}
        # vpage -> attribution tag for ranges bound but not yet backed
        # (lazy placement policies); populated pages move to _entries.
        self._reserved: Dict[int, Optional[str]] = {}
        #: Translation epoch, bumped whenever an existing translation
        #: becomes invalid (unmap).  Per-thread software TLBs compare it
        #: before trusting a cached vpage -> line-base entry; new
        #: mappings never invalidate old ones (remapping is an error),
        #: so only :meth:`unmap_page` bumps it.
        self.epoch = 0

    def map_page(self, vpage: int, node_id: int, frame: int,
                 frame_paddr: int) -> None:
        """Install a mapping; remapping an existing page is an error."""
        if vpage in self._entries:
            raise ValueError(f"virtual page {vpage:#x} already mapped")
        self._entries[vpage] = (node_id, frame)
        self.line_base_map[vpage] = frame_paddr >> 6

    # ------------------------------------------------------------------
    # Reservations (lazy placement policies: bind now, back on touch)
    # ------------------------------------------------------------------
    def reserve(self, vpage: int, tag: Optional[str]) -> None:
        """Record a bound-but-unbacked page; double booking is an error."""
        if vpage in self._entries or vpage in self._reserved:
            raise ValueError(f"virtual page {vpage:#x} already bound")
        self._reserved[vpage] = tag

    def is_reserved(self, vpage: int) -> bool:
        return vpage in self._reserved

    def reserved_tag(self, vpage: int) -> Optional[str]:
        return self._reserved.get(vpage)

    def retag_reserved(self, vpage: int, tag: str) -> None:
        """Change the attribution tag a reservation will back with."""
        if vpage not in self._reserved:
            raise PageFault(vpage << PAGE_SHIFT)
        self._reserved[vpage] = tag

    def unreserve(self, vpage: int) -> None:
        """Drop a reservation (munmap of a never-touched page)."""
        if self._reserved.pop(vpage, _MISSING) is _MISSING:
            raise PageFault(vpage << PAGE_SHIFT)

    def populate(self, vpage: int, node_id: int, frame: int,
                 frame_paddr: int) -> None:
        """Back a reserved page with a frame (first touch)."""
        if vpage not in self._reserved:
            raise PageFault(vpage << PAGE_SHIFT)
        del self._reserved[vpage]
        self.map_page(vpage, node_id, frame, frame_paddr)

    @property
    def reserved_pages(self) -> int:
        return len(self._reserved)

    def reserved_vpages(self) -> Iterator[int]:
        """Yield every reserved (unbacked) virtual page."""
        yield from self._reserved

    def unmap_page(self, vpage: int) -> Tuple[int, int]:
        """Remove a mapping, returning ``(node_id, frame)``."""
        entry = self._entries.pop(vpage, None)
        if entry is None:
            raise PageFault(vpage << PAGE_SHIFT)
        del self.line_base_map[vpage]
        self.epoch += 1
        return entry

    def is_mapped(self, vpage: int) -> bool:
        return vpage in self._entries

    def entry(self, vpage: int) -> Tuple[int, int]:
        try:
            return self._entries[vpage]
        except KeyError:
            raise PageFault(vpage << PAGE_SHIFT) from None

    def translate_line(self, vaddr: int) -> int:
        """Physical line address for ``vaddr`` (hot path)."""
        vline = vaddr >> 6
        base = self.line_base_map.get(vline >> LINES_PER_PAGE_SHIFT)
        if base is None:
            raise PageFault(vaddr)
        return base + (vline & LINE_OFFSET_MASK)

    @property
    def mapped_pages(self) -> int:
        return len(self._entries)

    def entries(self) -> Iterator[Tuple[int, int, int]]:
        """Yield ``(vpage, node_id, frame)`` for every mapping."""
        for vpage, (node, frame) in self._entries.items():
            yield vpage, node, frame
