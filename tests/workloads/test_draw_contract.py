"""The random-draw contract the mutator's inlined draws rely on.

``SyntheticApp.iteration`` and ``MutatorContext``'s random field
accesses skip ``Random.randrange``/``Random.choice`` and draw through an
inlined ``getrandbits(n.bit_length())`` rejection loop.  That keeps
every simulated counter bit-identical only while CPython implements
``randrange(n)`` and ``choice(seq)`` as ``_randbelow(n)``, and
``_randbelow`` as exactly that loop.  These tests pin each link for
every bound size the workloads use, so a CPython release that changes
one fails here, loudly, rather than as an unexplained golden-digest
drift.
"""

import random

import pytest

from repro.runtime.objectmodel import HEADER_BYTES, REF_BYTES, object_size
from repro.workloads.base import SyntheticApp
from repro.workloads.registry import _REGISTRY, benchmark_factory

#: Every bound from 1 to this is checked exhaustively.
MAX_BOUND = 2048
DRAWS = 24
SEEDS = (0, 1, 12345)


def inlined_randbelow(getrandbits, n):
    """The loop SyntheticApp.iteration inlines for a bound ``n``."""
    k = n.bit_length()
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return r


def workload_bounds():
    """Every draw bound the synthetic workloads use, by kind."""
    benchmark_factory("fop")  # loads every suite's registrations
    bounds = {"tables": set(), "small_sizes": set(), "small_refs": set(),
              "scalar_spans": set()}
    for name in sorted(_REGISTRY):
        for dataset in ("default", "large"):
            try:
                app = _REGISTRY[name](0, dataset=dataset)
            except (TypeError, ValueError):
                continue
            if not isinstance(app, SyntheticApp):
                continue
            profile = app.profile
            bounds["tables"].add(app.num_tables)
            bounds["tables"].add(
                max(1, int(app.num_tables * profile.hot_table_fraction)))
            bounds["small_sizes"].add(len(profile.small_sizes))
            bounds["small_refs"].add(len(profile.small_refs))
            shapes = [(s, r) for s in profile.small_sizes
                      for r in profile.small_refs]
            shapes.append((16, profile.table_slots))
            for scalar, refs in shapes:
                payload = object_size(scalar, refs) - HEADER_BYTES \
                    - refs * REF_BYTES
                bounds["scalar_spans"].add(max(1, payload - 8))
    return bounds


def test_every_workload_bound_is_in_the_checked_range():
    bounds = workload_bounds()
    assert all(bounds.values())
    for kind, sizes in bounds.items():
        assert max(sizes) <= MAX_BOUND, (kind, max(sizes))


@pytest.mark.parametrize("seed", SEEDS)
def test_randbelow_reproduces_randrange(seed):
    reference = random.Random(seed)
    bound = random.Random(seed)
    randbelow = bound._randbelow
    for n in range(1, MAX_BOUND + 1):
        expected = [reference.randrange(n) for _ in range(DRAWS)]
        assert [randbelow(n) for _ in range(DRAWS)] == expected, n
    assert bound.getstate() == reference.getstate()


@pytest.mark.parametrize("seed", SEEDS)
def test_indexing_by_randbelow_reproduces_choice(seed):
    reference = random.Random(seed)
    bound = random.Random(seed)
    randbelow = bound._randbelow
    for n in range(1, MAX_BOUND + 1):
        seq = tuple(range(100, 100 + n))
        expected = [reference.choice(seq) for _ in range(DRAWS)]
        assert [seq[randbelow(len(seq))] for _ in range(DRAWS)] \
            == expected, n
    assert bound.getstate() == reference.getstate()


@pytest.mark.parametrize("seed", SEEDS)
def test_inlined_getrandbits_loop_reproduces_randrange_and_choice(seed):
    by_randrange = random.Random(seed)
    by_choice = random.Random(seed)
    inlined = random.Random(seed)
    getrandbits = inlined.getrandbits
    for n in range(1, MAX_BOUND + 1):
        seq = tuple(range(n))
        draws = [inlined_randbelow(getrandbits, n) for _ in range(DRAWS)]
        assert draws == [by_randrange.randrange(n) for _ in range(DRAWS)], n
        assert draws == [by_choice.choice(seq) for _ in range(DRAWS)], n
    assert inlined.getstate() == by_randrange.getstate() \
        == by_choice.getstate()

