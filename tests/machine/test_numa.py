"""Tests for sockets, the core access path, and the machine."""

import pytest

from repro.config import KB, PAGE_SHIFT, PAGE_SIZE, LatencyModel, MB
from repro.machine.cache import CacheLevel
from repro.machine.memory import NODE_LINE_SHIFT, NODE_SHIFT, MemoryNode
from repro.machine.numa import NumaMachine, Socket

from tests.conftest import build_test_machine


def line_on(machine, node_id, frame=0, offset=0):
    node = machine.nodes[node_id]
    while node._next_frame <= frame:  # ensure frame exists
        node.allocate_frame()
    return (node.frame_to_paddr(frame) >> 6) + offset


class TestConstruction:
    def test_socket_ids_must_match_index(self):
        llc = CacheLevel(4096, 4)
        mem = MemoryNode(1, 16 * 4096, "DRAM")
        with pytest.raises(ValueError):
            NumaMachine([Socket(1, llc, mem, cores=2)], LatencyModel())

    def test_empty_machine_rejected(self):
        with pytest.raises(ValueError):
            NumaMachine([], LatencyModel())

    def test_logical_cpus(self, machine):
        assert machine.sockets[0].logical_cpus == 8  # 4 cores x 2 HT


class TestAccessPath:
    def test_llc_miss_costs_memory_latency(self, machine):
        core = machine.make_core(0)
        line = line_on(machine, 0)
        assert core.access_line(line, False) == machine.latency.local_dram
        assert core.access_line(line, False) == machine.latency.llc_hit

    def test_remote_access_costs_more(self, machine):
        core = machine.make_core(0)
        line = line_on(machine, 1)
        assert core.access_line(line, False) == machine.latency.remote_dram

    def test_memory_read_counted_on_home_node(self, machine):
        core = machine.make_core(0)
        core.access_line(line_on(machine, 1), False)
        assert machine.nodes[1].read_lines == 1
        assert machine.nodes[0].read_lines == 0

    def test_dirty_eviction_writes_home_node(self, machine):
        core = machine.make_core(0)
        llc = machine.sockets[0].llc
        base = line_on(machine, 1)
        # Fill one set beyond capacity with writes.
        for way in range(llc.assoc + 1):
            core.access_line(base + way * llc.num_sets, True)
        assert machine.nodes[1].write_lines == 1

    def test_private_cache_filters_llc(self):
        machine = build_test_machine(private_l2=4 * KB)
        core = machine.make_core(0)
        line = line_on(machine, 0)
        core.access_line(line, False)
        cost = core.access_line(line, False)
        assert cost == machine.latency.l2_hit
        # The LLC saw the line only once.
        assert machine.sockets[0].llc.stats.accesses == 1

    def test_private_dirty_writeback_reaches_llc(self):
        machine = build_test_machine(private_l2=4 * KB)
        core = machine.make_core(0)
        line = line_on(machine, 0)
        core.access_line(line, True)
        core.drain()
        assert machine.sockets[0].llc.is_dirty(line)


class TestMachine:
    def test_write_listener_invoked(self, machine):
        seen = []
        machine.write_listeners.append(seen.append)
        machine.memory_write(line_on(machine, 1))
        assert len(seen) == 1

    def test_flush_all_reaches_memory(self, machine):
        core = machine.make_core(0)
        line = line_on(machine, 1)
        core.access_line(line, True)
        machine.flush_all([core])
        assert machine.nodes[1].write_lines == 1

    def test_reset_counters(self, machine):
        machine.memory_write(line_on(machine, 0))
        machine.reset_counters()
        assert machine.node_writes(0) == 0

    def test_two_sockets_have_independent_llcs(self, machine):
        core0 = machine.make_core(0)
        core1 = machine.make_core(1)
        line = line_on(machine, 0)
        core0.access_line(line, False)
        # Socket 1's LLC does not hold socket 0's line.
        cost = core1.access_line(line, False)
        assert cost == machine.latency.remote_dram


class TestWriteBackAttribution:
    """record_write finds the written line's frame tag inline; pin it
    through the machine's routing and through the node itself."""

    @staticmethod
    def write(machine, route, line):
        if route == "machine":
            machine.memory_write(line)
        else:
            machine.nodes[line >> NODE_LINE_SHIFT].record_write(line)

    @pytest.mark.parametrize("route", ["machine", "node"])
    def test_node1_line_gets_its_own_frame_tag(self, machine, route):
        dram, pcm = machine.nodes
        dram.tag_frame(dram.allocate_frame(), "nursery")
        frame = pcm.allocate_frame()
        pcm.tag_frame(frame, "mature.pcm")
        # Same frame number on both nodes: only node 1's tag applies.
        assert frame == 0
        self.write(machine, route, (pcm.frame_to_paddr(frame) >> 6) + 5)
        assert pcm.writes_by_tag == {"mature.pcm": 1}
        assert dram.writes_by_tag == {}
        assert (dram.write_lines, pcm.write_lines) == (0, 1)

    @pytest.mark.parametrize("route", ["machine", "node"])
    def test_high_frame_number_gets_that_frames_tag(self, machine, route):
        pcm = machine.nodes[1]
        high = (1 << (NODE_SHIFT - PAGE_SHIFT)) - 1  # widest frame number
        pcm.tag_frame(high, "large.pcm")
        pcm.tag_frame(high & 0xFFFF, "low")  # would alias a narrow mask
        last_line = (pcm.frame_to_paddr(high) >> 6) + PAGE_SIZE // 64 - 1
        self.write(machine, route, last_line)
        assert pcm.writes_by_tag == {"large.pcm": 1}

    @pytest.mark.parametrize("route", ["machine", "node"])
    def test_freed_then_reallocated_frame_is_untagged(self, machine, route):
        pcm = machine.nodes[1]
        frame = pcm.allocate_frame()
        pcm.tag_frame(frame, "observer")
        pcm.free_frame(frame)
        assert pcm.allocate_frame() == frame
        self.write(machine, route, pcm.frame_to_paddr(frame) >> 6)
        assert pcm.write_lines == 1
        assert pcm.writes_by_tag == {}


# ----------------------------------------------------------------------
# access_run on short runs: n fused lines == n access_line calls
# ----------------------------------------------------------------------

#: 1 KB 4-way private cache (4 sets) in front of a 2 KB 2-way LLC (16
#: sets): small enough that every scenario below builds its eviction
#: state by hand.  Lines that share an LLC set also share a private set.
P_SETS = 4
L_SETS = 16


def short_run_machine(private=True):
    machine = build_test_machine(llc_size=2 * KB, llc_assoc=2,
                                 private_l2=1 * KB if private else 0)
    for node in machine.nodes:
        node.allocate_frame()
        node.tag_frame(0, f"space{node.node_id}")
    return machine


def all_private_hits(machine):
    core = machine.make_core(0)
    base = line_on(machine, 0)
    for offset in range(3):
        core.access_line(base + offset, offset == 1)
    return core, base


def hits_then_miss(machine):
    # Line 0 and line 2 are cached, line 1 is not: a run of two or
    # three lines hits, then misses mid-run, then (n=3) hits again.
    core = machine.make_core(0)
    base = line_on(machine, 0)
    core.access_line(base, True)
    core.access_line(base + 2, False)
    return core, base


def dirty_victim_chain(machine):
    # The run's first line misses the private cache and evicts its
    # dirty LRU line V; V's write-back into a full LLC set of dirty
    # lines pushes the LLC's LRU line A out to memory.
    core = machine.make_core(0)
    other = machine.make_core(0)
    v = line_on(machine, 1)
    a, b = v + L_SETS, v + 2 * L_SETS
    core.access_line(v, True)
    other.access_line(a, True)
    other.access_line(b, True)  # evicts the clean LLC copy of V
    other.drain()  # A and B now dirty in the LLC
    for k in (1, 2, 3):  # fill V's private set; V stays LRU
        core.access_line(v + k * P_SETS, False)
    return core, v + 5 * P_SETS


def remote_llc_misses(machine):
    return machine.make_core(0), line_on(machine, 1)


def llc_only_dirty_victims(machine):
    # No private cache: line 0 hits the LLC, line 1 misses into a full
    # set whose LRU line is dirty.
    core = machine.make_core(0)
    base = line_on(machine, 1)
    core.access_line(base, False)
    core.access_line(base + 1 + L_SETS, True)
    core.access_line(base + 1 + 2 * L_SETS, True)
    return core, base


SHORT_RUNS = {
    "all-private-hits": (True, all_private_hits),
    "hits-then-miss": (True, hits_then_miss),
    "dirty-victim-chain": (True, dirty_victim_chain),
    "remote-llc-misses": (True, remote_llc_misses),
    "llc-only": (False, llc_only_dirty_victims),
}


def machine_state(machine, core):
    """Every counter and cache line access_run is allowed to move."""
    state = {"qpi": machine.qpi_crossings, "nodes": [
        (node.read_lines, node.write_lines, dict(node.writes_by_tag))
        for node in machine.nodes]}
    for name, cache in (("private", core.private),
                        ("llc", core.socket.llc)):
        if cache is None:
            continue
        state[name] = (
            vars(cache.stats).copy(),
            # Resident lines with their dirty bits, LRU first.
            [list(cache_set.items()) for cache_set in cache._sets])
    return state


@pytest.mark.parametrize("scenario", sorted(SHORT_RUNS))
@pytest.mark.parametrize("count", [0, 1, 2, 3])
@pytest.mark.parametrize("is_write", [False, True])
def test_short_access_run_matches_per_line(scenario, count, is_write):
    private, setup = SHORT_RUNS[scenario]
    fused_machine = short_run_machine(private)
    oracle_machine = short_run_machine(private)
    fused_core, first = setup(fused_machine)
    oracle_core, oracle_first = setup(oracle_machine)
    assert first == oracle_first
    assert machine_state(fused_machine, fused_core) == \
        machine_state(oracle_machine, oracle_core)

    fused = fused_core.access_run(first, count, is_write)
    oracle = sum(oracle_core.access_line(first + i, is_write)
                 for i in range(count))

    assert fused == oracle
    assert machine_state(fused_machine, fused_core) == \
        machine_state(oracle_machine, oracle_core)


def test_short_run_scenarios_reach_their_paths():
    """Each scenario drives the path it is named after (oracle side)."""
    latency = LatencyModel()

    machine = short_run_machine()
    core, first = all_private_hits(machine)
    assert sum(core.access_line(first + i, True) for i in range(3)) \
        == 3 * latency.l2_hit

    machine = short_run_machine()
    core, first = hits_then_miss(machine)
    assert [core.access_line(first + i, False) for i in range(3)] \
        == [latency.l2_hit, latency.local_dram, latency.l2_hit]

    machine = short_run_machine()
    core, first = dirty_victim_chain(machine)
    before = machine.nodes[1].write_lines
    core.access_line(first, False)
    assert machine.nodes[1].write_lines == before + 1
    assert machine.nodes[1].writes_by_tag["space1"] == before + 1

    machine = short_run_machine()
    core, first = remote_llc_misses(machine)
    assert core.access_line(first, False) == latency.remote_dram
    assert machine.qpi_crossings == 1
    assert machine.nodes[1].read_lines == 1

    machine = short_run_machine(private=False)
    core, first = llc_only_dirty_victims(machine)
    before = machine.nodes[1].write_lines
    assert [core.access_line(first + i, False) for i in range(2)] \
        == [latency.llc_hit, latency.remote_dram]
    assert machine.nodes[1].write_lines == before + 1
