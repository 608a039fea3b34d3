"""Physical memory nodes: frame allocation and per-node write counters.

Each NUMA socket owns one :class:`MemoryNode`.  The node hands out
physical frames (to the kernel's ``mmap``/``mbind`` implementation) and
counts line-granularity reads and writes — the reproduction's equivalent
of the Intel ``pcm-memory`` utility's per-socket counters.

Writes can additionally be *attributed* to a tag (a heap space name)
recorded per physical page.  The paper's "simulation mode" uses this to
isolate nursery versus mature writes (Section VI-B's analysis).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from repro.config import LINE_SIZE, PAGE_SHIFT, PAGE_SIZE

#: Bits reserved for the node id in physical addresses.  Physical
#: addresses are ``(node_id << NODE_SHIFT) | byte_offset_within_node``.
NODE_SHIFT = 40
#: Same boundary expressed in line-address space.
NODE_LINE_SHIFT = NODE_SHIFT - 6
#: Line address -> frame number: shift out the line-in-page bits, then
#: mask off the node id.
LINE_FRAME_SHIFT = PAGE_SHIFT - 6
FRAME_MASK = (1 << (NODE_SHIFT - PAGE_SHIFT)) - 1


class OutOfPhysicalMemory(MemoryError):
    """Raised when a node has no free frames left."""


class MemoryNode:
    """Physical memory attached to one NUMA socket.

    Parameters
    ----------
    node_id:
        NUMA node number (0 = the emulated DRAM socket, 1 = PCM).
    capacity:
        Bytes of physical memory on this node.
    kind:
        Human label, e.g. ``"DRAM"`` or ``"PCM"``.
    """

    def __init__(self, node_id: int, capacity: int, kind: str) -> None:
        if capacity % PAGE_SIZE:
            raise ValueError("node capacity must be page aligned")
        self.node_id = node_id
        self.capacity = capacity
        self.kind = kind
        self.total_frames = capacity // PAGE_SIZE
        self._next_frame = 0
        self._free_frames: List[int] = []
        # Mirror of _free_frames for O(1) double-free detection: a frame
        # freed twice would be handed to two owners and make
        # frames_in_use drift negative.
        self._free_set: Set[int] = set()
        # Counters, in cache lines.
        self.write_lines = 0
        self.read_lines = 0
        #: Subset of ``write_lines`` issued by page-migration copies
        #: (writes the mutator never made; see Kernel.migrate_page).
        self.migration_write_lines = 0
        self.writes_by_tag: Dict[str, int] = {}
        # Physical page -> attribution tag (heap space name).
        self._page_tags: Dict[int, str] = {}

    # ------------------------------------------------------------------
    # Frame management
    # ------------------------------------------------------------------
    def allocate_frame(self) -> int:
        """Return a free physical frame number on this node."""
        if self._free_frames:
            frame = self._free_frames.pop()
            self._free_set.discard(frame)
            return frame
        if self._next_frame >= self.total_frames:
            raise OutOfPhysicalMemory(
                f"node {self.node_id} ({self.kind}) exhausted "
                f"{self.total_frames} frames")
        frame = self._next_frame
        self._next_frame += 1
        return frame

    def free_frame(self, frame: int) -> None:
        """Return ``frame`` to the free pool; double frees are errors."""
        if not 0 <= frame < self._next_frame:
            raise ValueError(f"frame {frame} was never allocated")
        if frame in self._free_set:
            raise ValueError(
                f"double free of frame {frame} on node {self.node_id}")
        self._free_frames.append(frame)
        self._free_set.add(frame)
        self._page_tags.pop(frame, None)

    @property
    def frames_in_use(self) -> int:
        return self._next_frame - len(self._free_frames)

    def frame_to_paddr(self, frame: int) -> int:
        """Physical byte address of the start of ``frame``."""
        return (self.node_id << NODE_SHIFT) | (frame << PAGE_SHIFT)

    # ------------------------------------------------------------------
    # Attribution
    # ------------------------------------------------------------------
    def tag_frame(self, frame: int, tag: str) -> None:
        """Attribute future writes to ``frame`` to heap space ``tag``."""
        self._page_tags[frame] = tag

    def tag_of_frame(self, frame: int) -> Optional[str]:
        """Attribution tag of ``frame`` (carried across migrations)."""
        return self._page_tags.get(frame)

    # ------------------------------------------------------------------
    # Traffic counters
    # ------------------------------------------------------------------
    def record_write(self, line: int) -> None:
        """Count one dirty-line write-back landing on this node."""
        self.write_lines += 1
        # The line's frame number within this node, looked up inline:
        # this runs once per dirty write-back.
        tag = self._page_tags.get(line >> LINE_FRAME_SHIFT & FRAME_MASK)
        if tag is not None:
            self.writes_by_tag[tag] = self.writes_by_tag.get(tag, 0) + 1

    def record_migration_write(self, line: int) -> None:
        """Count one page-migration copy line landing on this node.

        Counted in ``write_lines`` too (the device genuinely writes,
        and wear is real) but attributed to the ``(migration)`` pseudo
        tag instead of the frame's heap space: the space's mutator
        didn't issue the write, the OS did.  The sanitizer's
        migration_conservation law reconciles this subset counter.
        """
        self.write_lines += 1
        self.migration_write_lines += 1
        self.writes_by_tag["(migration)"] = (
            self.writes_by_tag.get("(migration)", 0) + 1)

    def record_read(self, line: int) -> None:
        self.read_lines += 1

    @property
    def write_bytes(self) -> int:
        return self.write_lines * LINE_SIZE

    @property
    def read_bytes(self) -> int:
        return self.read_lines * LINE_SIZE

    def reset_counters(self) -> None:
        """Zero traffic counters (used between warm-up and measurement)."""
        self.write_lines = 0
        self.read_lines = 0
        self.migration_write_lines = 0
        self.writes_by_tag = {}

    def snapshot(self) -> Dict[str, int]:
        """Point-in-time counter values, for the write-rate monitor."""
        return {
            "write_lines": self.write_lines,
            "read_lines": self.read_lines,
            "migration_write_lines": self.migration_write_lines,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"MemoryNode({self.node_id}, {self.kind}, "
                f"{self.frames_in_use}/{self.total_frames} frames)")


def node_of_line(line: int) -> int:
    """NUMA node id encoded in a physical line address."""
    return line >> NODE_LINE_SHIFT
