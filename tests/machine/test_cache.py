"""Unit and property tests for the set-associative write-back cache."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.machine.cache import CacheLevel


def make_cache(size=4096, assoc=4, line=64):
    return CacheLevel(size, assoc, line, name="test")


class TestConstruction:
    def test_geometry(self):
        cache = make_cache(size=4096, assoc=4)
        assert cache.num_sets == 16
        assert cache.assoc == 4

    @pytest.mark.parametrize("size,assoc,line", [
        (0, 4, 64), (4096, 0, 64), (4096, 4, 0), (4095, 4, 64),
        (-4096, 4, 64),      # negative size
        (4096, -2, 64),      # negative ways
        (4100, 4, 64),       # size not a multiple of line_size
        (4096, 3, 64),       # lines not divisible by assoc
        (64, 2, 64),         # one line cannot make a 2-way set
    ])
    def test_invalid_geometry_rejected(self, size, assoc, line):
        with pytest.raises(ValueError):
            CacheLevel(size, assoc, line)

    def test_error_names_the_cache(self):
        with pytest.raises(ValueError, match="victim-l2"):
            CacheLevel(0, 4, name="victim-l2")

    def test_lines_must_divide_by_assoc(self):
        with pytest.raises(ValueError):
            CacheLevel(64 * 3, 2, 64)


class TestAccess:
    def test_first_access_misses_then_hits(self):
        cache = make_cache()
        hit, victim, dirty = cache.access(10, False)
        assert not hit and victim is None and not dirty
        hit, _, _ = cache.access(10, False)
        assert hit
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1

    def test_write_sets_dirty(self):
        cache = make_cache()
        cache.access(10, True)
        assert cache.is_dirty(10)

    def test_read_after_write_keeps_dirty(self):
        cache = make_cache()
        cache.access(10, True)
        cache.access(10, False)
        assert cache.is_dirty(10)

    def test_lru_eviction_order(self):
        cache = make_cache(size=4 * 64, assoc=4)  # one set
        for line in range(4):
            cache.access(line * cache.num_sets, False)
        # Touch line 0 so line 1 becomes LRU.
        cache.access(0, False)
        hit, victim, dirty = cache.access(4 * cache.num_sets, False)
        assert not hit
        assert victim == 1 * cache.num_sets
        assert not dirty

    def test_dirty_victim_reported(self):
        cache = make_cache(size=2 * 64, assoc=2)  # one set, two ways
        cache.access(0, True)
        cache.access(1, False)
        _, victim, dirty = cache.access(2, False)
        assert victim == 0
        assert dirty
        assert cache.stats.dirty_evictions == 1

    def test_lines_in_different_sets_do_not_conflict(self):
        cache = make_cache(size=4096, assoc=1)
        cache.access(0, True)
        cache.access(1, True)  # different set (line % num_sets)
        assert cache.lookup(0) and cache.lookup(1)


class TestInstallDirty:
    def test_install_makes_dirty_without_demand_stats(self):
        cache = make_cache()
        cache.install_dirty(7)
        assert cache.is_dirty(7)
        assert cache.stats.accesses == 0

    def test_install_over_clean_line_sets_dirty(self):
        cache = make_cache()
        cache.access(7, False)
        cache.install_dirty(7)
        assert cache.is_dirty(7)

    def test_install_dirty_also_touches_lru(self):
        cache = make_cache(size=2 * 64, assoc=2)  # one set, two ways
        cache.access(0, False)
        cache.access(1, False)
        cache.install_dirty(0)  # write-back arrival counts as a touch
        _, victim, victim_dirty = cache.access(2, False)
        assert victim == 1
        assert not victim_dirty

    def test_install_can_evict(self):
        cache = make_cache(size=2 * 64, assoc=2)
        cache.access(0, True)
        cache.access(1, False)
        victim, dirty = cache.install_dirty(2)
        assert victim == 0 and dirty


class TestFlush:
    def test_flush_returns_only_dirty_lines(self):
        cache = make_cache()
        cache.access(1, True)
        cache.access(2, False)
        cache.access(3, True)
        assert sorted(cache.flush()) == [1, 3]
        assert cache.resident_lines() == []

    def test_flush_empties_even_clean(self):
        cache = make_cache()
        cache.access(5, False)
        cache.flush()
        assert not cache.lookup(5)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 255), st.booleans()),
                min_size=1, max_size=300))
def test_property_residents_are_subset_of_accessed(ops):
    cache = make_cache(size=1024, assoc=2)
    accessed = set()
    for line, is_write in ops:
        cache.access(line, is_write)
        accessed.add(line)
    assert set(cache.resident_lines()) <= accessed


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 255), st.booleans()),
                min_size=1, max_size=300))
def test_property_capacity_never_exceeded(ops):
    cache = make_cache(size=1024, assoc=2)
    for line, is_write in ops:
        cache.access(line, is_write)
        assert len(cache.resident_lines()) <= cache.size // cache.line_size


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 63), st.booleans()),
                min_size=1, max_size=400))
def test_property_write_conservation(ops):
    """Every written line is either still dirty, flushed, or was evicted
    dirty — writes never silently disappear."""
    cache = make_cache(size=512, assoc=2)
    written = set()
    evicted_dirty = []
    for line, is_write in ops:
        _, victim, dirty = cache.access(line, is_write)
        if is_write:
            written.add(line)
        if victim is not None and dirty:
            evicted_dirty.append(victim)
    flushed = cache.flush()
    assert set(flushed) | set(evicted_dirty) == written


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(0, 500), min_size=1, max_size=200),
       st.integers(1, 4))
def test_property_stats_consistency(lines, assoc_pow):
    cache = make_cache(size=2048, assoc=2 ** assoc_pow)
    for line in lines:
        cache.access(line, False)
    stats = cache.stats
    assert stats.hits + stats.misses == len(lines)
    assert stats.dirty_evictions <= stats.evictions
    assert 0.0 <= stats.miss_rate <= 1.0
