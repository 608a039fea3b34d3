"""Set-associative write-back, write-allocate caches with LRU replacement.

The model tracks, per cache line, only presence and a dirty bit — the
minimum state needed to count memory writes as dirty evictions, which is
how the paper's emulation platform observes PCM writes.

Implementation notes: each set is a plain ``dict`` mapping tag to dirty
flag.  CPython dicts preserve insertion order, so LRU is "pop and
re-insert on hit, evict first key on overflow" — all C-level operations,
which keeps the per-access cost low enough to push millions of accesses
through the simulator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple


@dataclass
class CacheStats:
    """Access counters for one cache level."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    dirty_evictions: int = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def miss_rate(self) -> float:
        total = self.accesses
        return self.misses / total if total else 0.0

    @property
    def hit_rate(self) -> float:
        total = self.accesses
        return self.hits / total if total else 0.0

    def as_dict(self) -> Dict[str, float]:
        """Counter snapshot for reports and the metrics registry."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "dirty_evictions": self.dirty_evictions,
            "hit_rate": self.hit_rate,
        }


def validate_geometry(size: int, assoc: int, line_size: int,
                      name: str) -> int:
    """Validate a cache geometry; returns the number of sets.

    A zero-way or zero-set configuration fails here (one used to fall
    into a ``% 0`` or allocate a cache that could never hold a line)
    instead of surfacing later as a counter bug.
    """
    if size <= 0:
        raise ValueError(f"{name}: cache size must be positive, got {size}")
    if assoc <= 0:
        raise ValueError(
            f"{name}: associativity (ways per set) must be positive, "
            f"got {assoc}")
    if line_size <= 0:
        raise ValueError(
            f"{name}: line_size must be positive, got {line_size}")
    if size % line_size:
        raise ValueError(
            f"{name}: cache size {size} must be a multiple of "
            f"line_size {line_size}")
    lines = size // line_size
    if lines == 0:
        raise ValueError(
            f"{name}: cache of {size} B holds zero {line_size} B lines")
    if lines % assoc:
        raise ValueError(
            f"{name}: {lines} lines not divisible by assoc {assoc}")
    num_sets = lines // assoc
    if num_sets == 0:
        raise ValueError(
            f"{name}: geometry yields zero sets ({lines} lines, "
            f"{assoc}-way)")
    return num_sets


class CacheLevel:
    """One level of a write-back, write-allocate cache.

    Parameters
    ----------
    size:
        Capacity in bytes.
    assoc:
        Associativity (ways per set).
    line_size:
        Cache line size in bytes; must divide ``size``.
    name:
        Label used in stats dumps ("L2", "LLC", ...).
    """

    def __init__(self, size: int, assoc: int, line_size: int = 64,
                 name: str = "cache") -> None:
        num_sets = validate_geometry(size, assoc, line_size, name)
        self.name = name
        self.size = size
        self.assoc = assoc
        self.line_size = line_size
        self.num_sets = num_sets
        self.stats = CacheStats()
        #: Dirty lines written back by :meth:`flush` (kept apart from
        #: ``stats.dirty_evictions`` so the sanitizer's write-conservation
        #: law can account for every line that reached memory: node
        #: writes == dirty evictions + flush write-backs).
        self.flushed_dirty = 0
        # One ordered dict per set: tag -> dirty flag.
        self._sets: List[Dict[int, bool]] = [dict() for _ in range(self.num_sets)]

    def lookup(self, line: int) -> bool:
        """Return True if ``line`` is present, without touching LRU state."""
        return (line // self.num_sets) in self._sets[line % self.num_sets]

    def is_dirty(self, line: int) -> bool:
        """Return the dirty bit of ``line`` (False if absent)."""
        return self._sets[line % self.num_sets].get(line // self.num_sets, False)

    def access(self, line: int, is_write: bool) -> Tuple[bool, Optional[int], bool]:
        """Access one cache line.

        Returns ``(hit, victim_line, victim_dirty)``.  On a miss the line
        is allocated (write-allocate); if the set overflows, the LRU
        victim is evicted and returned so the caller can propagate a
        write-back.  ``victim_line`` is ``None`` when nothing was evicted.
        """
        set_index = line % self.num_sets
        tag = line // self.num_sets
        cache_set = self._sets[set_index]
        stats = self.stats
        dirty = cache_set.pop(tag, None)
        if dirty is not None:
            # Hit: re-insert at MRU position, merging the dirty bit.
            cache_set[tag] = dirty or is_write
            stats.hits += 1
            return True, None, False
        stats.misses += 1
        victim_line: Optional[int] = None
        victim_dirty = False
        if len(cache_set) >= self.assoc:
            victim_tag = next(iter(cache_set))
            victim_dirty = cache_set.pop(victim_tag)
            victim_line = victim_tag * self.num_sets + set_index
            stats.evictions += 1
            if victim_dirty:
                stats.dirty_evictions += 1
        cache_set[tag] = is_write
        return False, victim_line, victim_dirty

    def access_run(self, first_line: int, count: int,
                   is_write: bool) -> Tuple[int, List[int]]:
        """Access ``count`` consecutive lines starting at ``first_line``.

        Bulk equivalent of calling :meth:`access` once per line, in
        ascending order, but with all the set-dict manipulation kept in
        one Python frame.  Returns ``(hits, dirty_victims)`` where
        ``dirty_victims`` lists the dirty lines evicted, in eviction
        order (clean victims are dropped — callers only propagate
        write-backs).  Stats end up bit-identical to the per-line path.
        """
        sets = self._sets
        num_sets = self.num_sets
        assoc = self.assoc
        hits = 0
        evictions = 0
        dirty_victims: List[int] = []
        for line in range(first_line, first_line + count):
            set_index = line % num_sets
            tag = line // num_sets
            cache_set = sets[set_index]
            dirty = cache_set.pop(tag, None)
            if dirty is not None:
                cache_set[tag] = dirty or is_write
                hits += 1
                continue
            if len(cache_set) >= assoc:
                victim_tag = next(iter(cache_set))
                evictions += 1
                if cache_set.pop(victim_tag):
                    dirty_victims.append(victim_tag * num_sets + set_index)
            cache_set[tag] = is_write
        stats = self.stats
        stats.hits += hits
        stats.misses += count - hits
        stats.evictions += evictions
        stats.dirty_evictions += len(dirty_victims)
        return hits, dirty_victims

    def install_dirty(self, line: int) -> Tuple[Optional[int], bool]:
        """Install ``line`` as dirty (an incoming write-back from above).

        Returns ``(victim_line, victim_dirty)`` for any line displaced.
        Unlike :meth:`access`, this never counts as a demand hit/miss.
        """
        set_index = line % self.num_sets
        tag = line // self.num_sets
        cache_set = self._sets[set_index]
        if cache_set.pop(tag, None) is not None:
            cache_set[tag] = True
            return None, False
        victim_line: Optional[int] = None
        victim_dirty = False
        if len(cache_set) >= self.assoc:
            victim_tag = next(iter(cache_set))
            victim_dirty = cache_set.pop(victim_tag)
            victim_line = victim_tag * self.num_sets + set_index
            self.stats.evictions += 1
            if victim_dirty:
                self.stats.dirty_evictions += 1
        cache_set[tag] = True
        return victim_line, victim_dirty

    def flush(self) -> List[int]:
        """Write back and drop every line; return the dirty line addresses."""
        dirty_lines: List[int] = []
        for set_index, cache_set in enumerate(self._sets):
            for tag, dirty in cache_set.items():
                if dirty:
                    dirty_lines.append(tag * self.num_sets + set_index)
            cache_set.clear()
        self.flushed_dirty += len(dirty_lines)
        return dirty_lines

    def resident_lines(self) -> List[int]:
        """All line addresses currently cached (for tests/invariants)."""
        lines: List[int] = []
        for set_index, cache_set in enumerate(self._sets):
            lines.extend(tag * self.num_sets + set_index for tag in cache_set)
        return lines

    def set_occupancy(self) -> List[int]:
        """Valid-line count per set (the sanitizer's overflow law)."""
        return [len(cache_set) for cache_set in self._sets]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"CacheLevel({self.name}, {self.size}B, "
                f"{self.assoc}-way, {self.num_sets} sets)")
