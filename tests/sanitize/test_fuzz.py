"""Tests for the differential-oracle fuzzer."""

import pytest

from repro.config import PAGE_SIZE
from repro.kernel.process import SimThread
from repro.machine.numa import CorePath
from repro.sanitize.fuzz import (
    DRAM_BASE,
    PCM_BASE,
    PLANTED_BUGS,
    DifferentialFuzzer,
    TraceOp,
    TraceReplayer,
    diff_snapshots,
    generate_trace,
    per_line_oracle,
    planted_bug,
    read_trace_jsonl,
    replay,
    shrink_trace,
    write_trace_jsonl,
)


class TestTraceGeneration:
    def test_deterministic_for_a_seed(self):
        assert generate_trace(7, 300) == generate_trace(7, 300)

    def test_seeds_differ(self):
        assert generate_trace(1, 300) != generate_trace(2, 300)

    def test_requested_length(self):
        assert len(generate_trace(0, 123)) == 123

    def test_mix_covers_the_interesting_cases(self):
        trace = generate_trace(0, 2000)
        kinds = {op.kind for op in trace}
        assert kinds == {"access", "mmap", "munmap", "drain", "flush"}
        accesses = [op for op in trace if op.kind == "access"]
        # Page-straddling runs, both polarities, unaligned starts.
        assert any(op.size > PAGE_SIZE for op in accesses)
        assert any(op.is_write for op in accesses)
        assert any(not op.is_write for op in accesses)
        assert any(op.vaddr % 64 for op in accesses)
        assert any(op.thread == 2 for op in accesses)  # PCM-socket thread

    def test_trace_op_round_trips_through_dicts(self):
        op = TraceOp("access", thread=1, vaddr=0x1234, size=100,
                     is_write=True)
        assert TraceOp.from_dict(op.to_dict()) == op

    def test_trace_jsonl_round_trip(self, tmp_path):
        trace = generate_trace(3, 50)
        path = str(tmp_path / "trace.jsonl")
        assert write_trace_jsonl(path, trace) == 50
        assert read_trace_jsonl(path) == trace


class TestReplay:
    def test_engines_agree_on_a_clean_trace(self):
        trace = generate_trace(11, 600)
        batched, violations_b = replay(trace, check_every=64)
        with per_line_oracle():
            oracle, violations_o = replay(trace, check_every=64)
        assert diff_snapshots(batched, oracle) == []
        assert violations_b == [] and violations_o == []

    def test_faulting_ops_recorded_identically(self):
        trace = [
            TraceOp("access", vaddr=DRAM_BASE, size=64, is_write=True),
            TraceOp("access", vaddr=0x900000, size=64),  # unmapped hole
            TraceOp("mmap", vaddr=DRAM_BASE, pages=1, node=0),  # overlap
            TraceOp("munmap", vaddr=0x900000, pages=1),  # not mapped
            TraceOp("access", vaddr=PCM_BASE + 1, size=200,
                    is_write=True),
        ]
        batched, _ = replay(trace)
        with per_line_oracle():
            oracle, _ = replay(trace)
        assert diff_snapshots(batched, oracle) == []
        names = [entry[1] for entry in batched["exceptions"]]
        assert names == ["PageFault", "MBindError", "PageFault"]

    def test_snapshot_covers_both_sockets_and_the_kernel(self):
        snapshot, _ = replay(generate_trace(5, 200))
        assert {"node0.write_lines", "node1.write_lines", "llc0", "llc1",
                "qpi_crossings", "kernel"} <= set(snapshot)


class TestPerLineOracle:
    """``per_line_oracle()`` must really route through the per-line
    walk; otherwise every oracle leg silently tests the access path
    against itself."""

    @pytest.fixture
    def calls(self, monkeypatch):
        counts = {"per_line": 0, "access_run": 0}
        per_line = SimThread.access_per_line
        access_run = CorePath.access_run

        def spy_per_line(thread, vaddr, size, is_write):
            counts["per_line"] += 1
            return per_line(thread, vaddr, size, is_write)

        def spy_access_run(path, first_line, count, is_write):
            counts["access_run"] += 1
            return access_run(path, first_line, count, is_write)

        monkeypatch.setattr(SimThread, "access_per_line", spy_per_line)
        monkeypatch.setattr(CorePath, "access_run", spy_access_run)
        return counts

    @staticmethod
    def _touch():
        """One single-line access, one multi-page access, one block."""
        thread = TraceReplayer().threads[0]
        thread.access(DRAM_BASE + 8, 8, True)
        thread.access(DRAM_BASE + 100, 2 * PAGE_SIZE, False)
        thread.access_block(PCM_BASE, 256, True)

    def test_accesses_reach_the_per_line_walk_only(self, calls):
        with per_line_oracle():
            self._touch()
        assert calls == {"per_line": 3, "access_run": 0}

    def test_outside_the_oracle_accesses_take_access_run(self, calls):
        self._touch()
        assert calls["per_line"] == 0
        assert calls["access_run"] > 0

    def test_methods_restored_on_exit_and_on_error(self):
        access = SimThread.access
        block = SimThread.access_block
        with per_line_oracle():
            assert SimThread.access is SimThread.access_per_line
            assert SimThread.access_block is SimThread.access_per_line
        assert SimThread.access is access
        assert SimThread.access_block is block
        with pytest.raises(RuntimeError):
            with per_line_oracle():
                raise RuntimeError("boom")
        assert SimThread.access is access
        assert SimThread.access_block is block

    def test_nests_inside_planted_short_block(self, calls):
        access = SimThread.access
        block = SimThread.access_block
        with planted_bug("short-block"):
            buggy = SimThread.access_block
            assert buggy is not block
            with per_line_oracle():
                self._touch()
                assert SimThread.access_block is SimThread.access_per_line
            assert calls == {"per_line": 3, "access_run": 0}
            assert SimThread.access_block is buggy
            assert SimThread.access is access
        assert SimThread.access_block is block


class TestFuzzer:
    def test_clean_stack_fuzzes_clean(self):
        result = DifferentialFuzzer(ops=800).run_trial(0)
        assert result.ok
        assert result.divergence is None
        assert result.violations == []

    def test_multiple_trials_use_distinct_seeds(self):
        fuzzer = DifferentialFuzzer(ops=100, check_every=0)
        results = fuzzer.run(seed=40, trials=3)
        assert [r.seed for r in results] == [40, 41, 42]
        assert all(r.ok for r in results)

    def test_result_to_dict_is_json_ready(self):
        import json

        result = DifferentialFuzzer(ops=100, check_every=0).run_trial(0)
        assert json.loads(json.dumps(result.to_dict()))["ok"] is True

    def test_invalid_ops_rejected(self):
        with pytest.raises(ValueError):
            DifferentialFuzzer(ops=0)


class TestMigratePlacementFuzz:
    """The migrate policy under the differential oracle: ticks inserted
    into the trace, every engine migrating identically."""

    def test_tick_insertion_preserves_base_trace(self):
        base = generate_trace(9, 200)
        ticked = generate_trace(9, 200, tick_every=50)
        # Historical traces stay byte-identical; ticks are a post-pass.
        assert [op for op in ticked if op.kind != "tick"] == base
        assert sum(1 for op in ticked if op.kind == "tick") == 4

    def test_tick_every_zero_inserts_nothing(self):
        assert generate_trace(9, 200, tick_every=0) == generate_trace(9, 200)

    def test_engines_agree_under_migrate_with_ticks(self):
        trace = generate_trace(13, 800, tick_every=64)
        batched, violations_b = replay(trace, check_every=64,
                                       placement="migrate")
        with per_line_oracle():
            oracle, violations_o = replay(trace, check_every=64,
                                          placement="migrate")
        assert diff_snapshots(batched, oracle) == []
        assert violations_b == [] and violations_o == []

    def test_migrate_snapshot_tracks_migration_counters(self):
        trace = generate_trace(13, 800, tick_every=64)
        snapshot, _ = replay(trace, placement="migrate")
        assert "node0.migration_write_lines" in snapshot
        assert "node1.migration_write_lines" in snapshot
        # kernel tuple: (..., pages_migrated, migration_writes)
        pages_migrated, migration_writes = snapshot["kernel"][-2:]
        assert migration_writes == pages_migrated * (PAGE_SIZE // 64)

    def test_fuzzer_accepts_placement_and_ticks(self):
        fuzzer = DifferentialFuzzer(ops=600, check_every=64,
                                    placement="migrate", tick_every=48)
        result = fuzzer.run_trial(0)
        assert result.ok
        assert result.to_dict()["placement"] == "migrate"

    def test_fuzzer_rejects_bad_placement_and_tick(self):
        with pytest.raises(ValueError):
            DifferentialFuzzer(ops=100, placement="bogus")
        with pytest.raises(ValueError):
            DifferentialFuzzer(ops=100, tick_every=-1)


class TestPlantedBugs:
    def test_short_block_bug_is_caught_and_shrunk(self):
        with planted_bug("short-block"):
            result = DifferentialFuzzer(ops=800,
                                        check_every=0).run_trial(0)
        assert result.divergence is not None
        report = result.divergence
        # The acceptance bar: a planted counter bug must shrink to a
        # trace a human can replay by hand.
        assert len(report.shrunk) <= 25
        assert report.keys  # names the diverging counters
        # The shrunk trace must still reproduce outside the shrinker.
        with planted_bug("short-block"):
            batched, _ = replay(report.shrunk)
            with per_line_oracle():
                oracle, _ = replay(report.shrunk)
        assert diff_snapshots(batched, oracle)

    def test_short_block_report_describes_the_trace(self):
        with planted_bug("short-block"):
            result = DifferentialFuzzer(ops=400,
                                        check_every=0).run_trial(0)
        text = result.divergence.describe()
        assert "shrunk to" in text and "access" in text

    def test_clean_write_bug_is_caught_and_shrunk(self):
        with planted_bug("clean-write"):
            result = DifferentialFuzzer(ops=800,
                                        check_every=0).run_trial(0)
        report = result.divergence
        assert report is not None
        assert len(report.shrunk) <= 25
        # A lost dirty bit shows up as missing write-backs.
        assert any(key.endswith("write_lines") for key in report.keys)
        with planted_bug("clean-write"):
            fast, _ = replay(report.shrunk)
            with per_line_oracle():
                oracle, _ = replay(report.shrunk)
        assert diff_snapshots(fast, oracle)

    def test_lost_writeback_is_invisible_to_the_differential(self):
        # Both engines lose the same writes, so only the sanitizer's
        # write-conservation law can see this bug.
        with planted_bug("lost-writeback"):
            result = DifferentialFuzzer(ops=400).run_trial(0)
        assert result.divergence is None
        assert result.violations
        assert {v.law for v in result.violations} == {"write_conservation"}
        assert not result.ok

    def test_bugs_uninstall_cleanly(self):
        for name in PLANTED_BUGS:
            with planted_bug(name):
                pass
        result = DifferentialFuzzer(ops=300).run_trial(0)
        assert result.ok

    def test_unknown_bug_rejected(self):
        with pytest.raises(ValueError):
            with planted_bug("heisenbug"):
                pass


class TestShrinking:
    def test_shrinks_to_the_single_culprit(self):
        # Only one op (the write) flips the fail bit; shrinking must
        # isolate it regardless of the noise around it.
        trace = [TraceOp("access", vaddr=DRAM_BASE + i * 64, size=8)
                 for i in range(20)]
        trace.insert(13, TraceOp("access", vaddr=DRAM_BASE, size=8,
                                 is_write=True))

        def fails(candidate):
            return any(op.is_write for op in candidate)

        shrunk, evals = shrink_trace(trace, fails)
        assert len(shrunk) == 1
        assert shrunk[0].is_write
        assert evals > 0

    def test_respects_the_eval_budget(self):
        trace = generate_trace(0, 256)
        calls = []

        def fails(candidate):
            calls.append(len(candidate))
            return True

        shrink_trace(trace, fails, max_evals=10)
        assert len(calls) <= 10

    def test_keeps_a_multi_op_dependency_together(self):
        # Failure needs the mmap *and* the access: neither alone.
        trace = generate_trace(9, 30)
        trace += [TraceOp("mmap", vaddr=0x700000, pages=1, node=1),
                  TraceOp("access", vaddr=0x700000, size=64,
                          is_write=True)]

        def fails(candidate):
            mapped = False
            for op in candidate:
                if op.kind == "mmap" and op.vaddr == 0x700000:
                    mapped = True
                if (op.kind == "access" and op.vaddr == 0x700000
                        and mapped):
                    return True
            return False

        shrunk, _ = shrink_trace(trace, fails)
        assert len(shrunk) == 2
