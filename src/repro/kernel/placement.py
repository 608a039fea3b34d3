"""Placement policies: who decides which NUMA node backs a page.

The paper's central comparison is GC-*directed* placement (the KG-*
collectors steer whole spaces to DRAM or PCM through ``mbind``) against
what an unmodified OS would do.  This module supplies the OS side:

``static``
    Honour the binding request exactly — frames come from the node the
    caller asked for, eagerly at ``mmap_bind`` time.  This is the
    behaviour every earlier PR assumed and stays the default.
``first-touch``
    Linux's default NUMA policy: ``mmap_bind`` only *reserves* the
    range; a page is backed on its first access, from the node local to
    the touching thread's socket (falling back to other nodes when the
    local one is exhausted).  The binding request's node is ignored.
``interleave``
    Round-robin pages across all nodes at bind time, per process.
``migrate``
    MigrantStore-style DRAM-as-cache (PAPERS.md: arXiv 1504.04297):
    everything is backed on PCM first, per-page write counts are fed
    from the machine's write stream into an epoch-folded EWMA, and at
    every placement tick the hottest PCM pages are promoted into a
    bounded DRAM budget while cooled-off residents are demoted back.
    Migration copies are charged as explicit migration writes (see
    :meth:`repro.kernel.vm.Kernel.migrate_page`).

A run's policy is part of its key: ``placement=`` on
:class:`~repro.kernel.vm.Kernel` (``repro run --placement ...``),
``static`` when not given.

Engine-identity: policies only act between accesses.  Hot-page counters
are fed from ``machine.write_listeners``, which every engine calls once
per write-back, and migrations happen inside
:meth:`Kernel.placement_tick` / :meth:`Kernel.migrate_page` — never
from inside an access, where the batched engine holds a cached
translation.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Tuple, Type

from repro.config import PAGE_SHIFT
from repro.machine.memory import NODE_SHIFT, OutOfPhysicalMemory
from repro.machine.topology import DRAM_NODE, PCM_NODE

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.kernel.process import Process
    from repro.kernel.vm import Kernel

class PlacementPolicy:
    """Per-process placement decisions; the base class is ``static``.

    The kernel consults the policy at three moments:

    * :meth:`place_eager` at ``mmap_bind`` — return the node to back a
      page from now, or ``None`` to defer backing to first touch;
    * :meth:`place_fault` at a first touch of a reserved page — return
      the node to back it from;
    * :meth:`tick` at placement safepoints (once per scheduler round),
      where migrating policies may call ``kernel.migrate_page``.

    ``note_mapped``/``note_unmapped`` keep migrating policies' reverse
    maps in sync with the page table; they are called for every backed
    page the kernel installs or removes, including migrations.
    """

    name = "static"
    #: Lazy policies reserve at bind time and back pages at first touch.
    lazy = False
    #: Tick-driven policies are called back from ``placement_tick``.
    needs_tick = False
    #: Write-stream policies get a listener on ``machine.write_listeners``.
    wants_writes = False

    def __init__(self, kernel: "Kernel") -> None:
        self.kernel = kernel
        self.process: Optional["Process"] = None

    def bind(self, process: "Process") -> None:
        """Attach the owning process (set once by ``create_process``)."""
        self.process = process

    def place_eager(self, vpage: int, requested_node: int) -> Optional[int]:
        """Node to back ``vpage`` from at bind time; ``None`` defers."""
        return requested_node

    def place_fault(self, vpage: int, socket_id: int) -> int:
        """Node to back ``vpage`` from at first touch."""
        raise NotImplementedError  # pragma: no cover - lazy policies only

    def note_mapped(self, vpage: int, node_id: int, frame: int) -> None:
        """A page of the owning process was backed on ``node_id``."""

    def note_unmapped(self, vpage: int, node_id: int, frame: int) -> None:
        """A backed page of the owning process was released."""

    def note_migrated(self, vpage: int, src_node_id: int, src_frame: int,
                      dest_node_id: int, dest_frame: int) -> None:
        """A backed page moved nodes (same vpage, new frame).

        Distinct from an unmap/map pair so migrating policies can keep
        per-page heat across the move: treating a migration as an unmap
        used to zero the page's EWMA score, making every freshly
        promoted page look ice-cold and demoting it at the very next
        tick — a promote/demote thrash that tripled migration writes.
        """
        self.note_unmapped(vpage, src_node_id, src_frame)
        self.note_mapped(vpage, dest_node_id, dest_frame)

    def on_write(self, line: int) -> None:
        """Write-stream feed (only installed when ``wants_writes``)."""

    def tick(self) -> None:
        """Placement safepoint (only called when ``needs_tick``)."""


class StaticPlacement(PlacementPolicy):
    """Today's behaviour: eager frames from exactly the requested node."""


class FirstTouchPlacement(PlacementPolicy):
    """Lazy backing from the toucher's local node (Linux default).

    The binding request's node is deliberately ignored: the point of
    this baseline is an OS that never hears the GC's placement hints.
    A first touch from a thread on socket ``s`` backs the page from
    node ``s``; when that node is exhausted the other nodes are tried
    in id order (Linux falls back rather than OOMing the node).
    """

    name = "first-touch"
    lazy = True

    def place_eager(self, vpage: int, requested_node: int) -> Optional[int]:
        return None

    def place_fault(self, vpage: int, socket_id: int) -> int:
        nodes = self.kernel.machine.nodes
        preferred = nodes[socket_id]
        if preferred.frames_in_use < preferred.total_frames:
            return socket_id
        for node in nodes:
            if node.frames_in_use < node.total_frames:
                return node.node_id
        # Every node is full: report exhaustion against the local node.
        return socket_id


class InterleavePlacement(PlacementPolicy):
    """Eager round-robin across nodes, per process (numactl-style)."""

    name = "interleave"

    def __init__(self, kernel: "Kernel") -> None:
        super().__init__(kernel)
        self._next_node = 0

    def place_eager(self, vpage: int, requested_node: int) -> Optional[int]:
        node = self._next_node
        self._next_node = (node + 1) % len(self.kernel.machine.nodes)
        return node


class MigrantStorePlacement(PlacementPolicy):
    """DRAM-as-cache with OS-visible hot-page migration.

    Everything is backed on PCM; per-page write counts accumulate from
    the machine's write stream (per-line listener delivery keeps every
    engine's counts identical at sync points) and fold into an EWMA at
    each tick.  Pages whose score clears ``promote_threshold`` are
    promoted into DRAM while ``dram_budget_pages`` allows; residents
    whose score falls below ``demote_threshold`` (hysteresis) are
    demoted back.  At most ``max_migrations_per_tick`` pages move per
    tick, hottest (then lowest vpage) first — a total order, so every
    engine migrates the same pages in the same order.
    """

    name = "migrate"
    needs_tick = True
    wants_writes = True

    #: Lines per page, for phys-page keys derived from line addresses.
    _LINES_PER_PAGE_SHIFT = PAGE_SHIFT - 6

    def __init__(self, kernel: "Kernel",
                 dram_budget_pages: Optional[int] = None,
                 ewma_alpha: float = 0.5,
                 promote_threshold: float = 4.0,
                 demote_threshold: float = 1.0,
                 max_migrations_per_tick: int = 8) -> None:
        super().__init__(kernel)
        if dram_budget_pages is None:
            # A quarter of the DRAM node: the rest stays available for
            # statically-placed infrastructure (monitor buffers etc.).
            dram_budget_pages = max(
                1, kernel.machine.nodes[DRAM_NODE].total_frames // 4)
        if dram_budget_pages < 1:
            raise ValueError("DRAM budget must be at least one page")
        if not 0.0 < ewma_alpha <= 1.0:
            raise ValueError("EWMA alpha must be in (0, 1]")
        if demote_threshold > promote_threshold:
            raise ValueError("demote threshold must not exceed promote "
                             "threshold (hysteresis)")
        self.dram_budget_pages = dram_budget_pages
        self.ewma_alpha = ewma_alpha
        self.promote_threshold = promote_threshold
        self.demote_threshold = demote_threshold
        self.max_migrations_per_tick = max_migrations_per_tick
        # Physical page (paddr >> PAGE_SHIFT, node bits included) ->
        # vpage, for the write listener's reverse lookup.
        self._by_phys: Dict[int, int] = {}
        # vpage -> current home node, for residency decisions.
        self._page_node: Dict[int, int] = {}
        # vpage -> writes observed since the last tick.
        self._epoch_writes: Dict[int, int] = {}
        # vpage -> EWMA of per-epoch write counts.
        self._score: Dict[int, float] = {}

    # ------------------------------------------------------------------
    # Kernel callbacks
    # ------------------------------------------------------------------
    def place_eager(self, vpage: int, requested_node: int) -> Optional[int]:
        # The OS ignores the application's hints: PCM first, always.
        return PCM_NODE

    def note_mapped(self, vpage: int, node_id: int, frame: int) -> None:
        phys = ((node_id << (NODE_SHIFT - PAGE_SHIFT)) | frame)
        self._by_phys[phys] = vpage
        self._page_node[vpage] = node_id

    def note_unmapped(self, vpage: int, node_id: int, frame: int) -> None:
        phys = ((node_id << (NODE_SHIFT - PAGE_SHIFT)) | frame)
        self._by_phys.pop(phys, None)
        self._page_node.pop(vpage, None)
        self._epoch_writes.pop(vpage, None)
        self._score.pop(vpage, None)

    def note_migrated(self, vpage: int, src_node_id: int, src_frame: int,
                      dest_node_id: int, dest_frame: int) -> None:
        # Residency changes; heat survives the move (see the base-class
        # docstring for the thrash this prevents).
        old = (src_node_id << (NODE_SHIFT - PAGE_SHIFT)) | src_frame
        self._by_phys.pop(old, None)
        new = (dest_node_id << (NODE_SHIFT - PAGE_SHIFT)) | dest_frame
        self._by_phys[new] = vpage
        self._page_node[vpage] = dest_node_id

    def on_write(self, line: int) -> None:
        # Migration copies target a frame that is not yet in _by_phys
        # (note_mapped runs after the copy), so they never feed their
        # own page's hotness.
        vpage = self._by_phys.get(line >> self._LINES_PER_PAGE_SHIFT)
        if vpage is not None:
            self._epoch_writes[vpage] = self._epoch_writes.get(vpage, 0) + 1

    # ------------------------------------------------------------------
    # The migration epoch
    # ------------------------------------------------------------------
    def _fold_epoch(self) -> None:
        """Fold this epoch's write counts into the EWMA scores."""
        alpha = self.ewma_alpha
        decay = 1.0 - alpha
        epoch = self._epoch_writes
        score = self._score
        for vpage in sorted(set(score) | set(epoch)):
            new = alpha * epoch.get(vpage, 0) + decay * score.get(vpage, 0.0)
            if new < 1e-3 and vpage not in epoch:
                score.pop(vpage, None)
            else:
                score[vpage] = new
        epoch.clear()

    def _dram_resident(self) -> List[int]:
        return [vpage for vpage, node in self._page_node.items()
                if node == DRAM_NODE]

    def tick(self) -> None:
        """Promote/demote at a safepoint; at most the per-tick cap moves."""
        process = self.process
        assert process is not None, "policy used before bind()"
        self._fold_epoch()
        score = self._score
        budget_left = self.max_migrations_per_tick
        # Demote first: cooled-off residents free budget for promotions.
        resident = self._dram_resident()
        cold = sorted(
            (vpage for vpage in resident
             if score.get(vpage, 0.0) < self.demote_threshold),
            key=lambda vpage: (score.get(vpage, 0.0), vpage))
        for vpage in cold:
            if budget_left <= 0:
                return
            self.kernel.migrate_page(process, vpage, PCM_NODE)
            budget_left -= 1
        in_dram = len(self._dram_resident())
        hot = sorted(
            (vpage for vpage, node in self._page_node.items()
             if node == PCM_NODE
             and score.get(vpage, 0.0) >= self.promote_threshold),
            key=lambda vpage: (-score.get(vpage, 0.0), vpage))
        for vpage in hot:
            if budget_left <= 0 or in_dram >= self.dram_budget_pages:
                return
            try:
                self.kernel.migrate_page(process, vpage, DRAM_NODE)
            except OutOfPhysicalMemory:
                # DRAM is contended beyond our budget (statically-placed
                # infrastructure owns the rest); stop promoting this tick.
                return
            budget_left -= 1
            in_dram += 1


_POLICIES: Dict[str, Type[PlacementPolicy]] = {
    "static": StaticPlacement,
    "first-touch": FirstTouchPlacement,
    "interleave": InterleavePlacement,
    "migrate": MigrantStorePlacement,
}
#: Valid placement names; registry order is also the CLI help order.
PLACEMENT_NAMES: Tuple[str, ...] = tuple(_POLICIES)


def check_placement(name: str) -> str:
    """``name`` itself; :class:`ValueError` unless it is a policy."""
    if name not in _POLICIES:
        raise ValueError(
            f"unknown placement {name!r}; choose from "
            f"{', '.join(PLACEMENT_NAMES)}")
    return name


def make_policy(name: str, kernel: "Kernel") -> PlacementPolicy:
    """Instantiate the policy ``name`` for one process of ``kernel``."""
    policy: PlacementPolicy = _POLICIES[check_placement(name)](kernel)
    return policy
