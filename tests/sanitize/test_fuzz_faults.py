"""Differential equivalence under fault injection (satellite of the
sanitizer PR): when a :class:`FaultPlan` fires mid-trace, the batched
and per-line engines must still report bit-identical counters *and*
identical fault behaviour — the plan is reinstalled with reset arrival
counts for each engine's replay, so the same kernel-op sequence meets
the same faults."""

import pytest

from repro.faults.plan import FAULTS, FaultPlan
from repro.sanitize.fuzz import (
    DifferentialFuzzer,
    TraceOp,
    diff_snapshots,
    generate_trace,
    per_line_oracle,
    replay,
)

SLOT = 0x400000  # first dynamic slot of the fuzz layout


def deterministic_mmap_plan(**kwargs):
    """Fail the 2nd trace mmap.  The replayer's two base-region mmaps
    run before the plan is installed, so they do not count arrivals —
    trace mmaps are arrivals 1, 2, ..."""
    return FaultPlan(seed=5).add("kernel.mmap_bind", at=2,
                                 error="frame_exhausted", **kwargs)


class TestDifferentialUnderFaults:
    def test_engines_agree_when_a_fault_fires_mid_trace(self):
        plan = deterministic_mmap_plan()
        trace = generate_trace(21, 600)
        batched, violations_b = replay(trace, fault_plan=plan,
                                       check_every=64)
        with per_line_oracle():
            oracle, violations_o = replay(trace, fault_plan=plan,
                                          check_every=64)
        assert diff_snapshots(batched, oracle) == []
        assert violations_b == [] and violations_o == []
        # The plan really fired: the failed mmap shows up as a recorded
        # per-op exception in both replays.
        names = {entry[1] for entry in batched["exceptions"]}
        assert "OutOfPhysicalMemory" in names

    def test_fuzzer_accepts_a_fault_plan(self):
        fuzzer = DifferentialFuzzer(ops=600,
                                    fault_plan=deterministic_mmap_plan())
        result = fuzzer.run_trial(21)
        assert result.ok

    def test_recurring_probabilistic_faults_stay_deterministic(self):
        # probability < 1 draws from the plan's seeded RNG; reinstalling
        # the plan resets the stream, so both engines and repeated runs
        # see the identical fault schedule.
        plan = FaultPlan(seed=11).add("kernel.mmap_bind", times=-1,
                                      probability=0.4,
                                      error="frame_exhausted")
        trace = generate_trace(33, 500)
        first, _ = replay(trace, fault_plan=plan)
        with per_line_oracle():
            second, _ = replay(trace, fault_plan=plan)
        third, _ = replay(trace, fault_plan=plan)
        assert diff_snapshots(first, second) == []
        assert diff_snapshots(first, third) == []

    def test_faulted_mmap_leaves_the_slot_unmapped_in_both(self):
        # A handcrafted trace: the faulted mmap's slot must fault on
        # access in *both* engines (the model thinks it is mapped).
        plan = deterministic_mmap_plan()
        trace = [
            TraceOp("mmap", vaddr=SLOT, pages=2, node=1),  # arrival 1 -> ok
            TraceOp("mmap", vaddr=SLOT + 0x8000, pages=1,
                    node=0),  # arrival 2 -> injected failure
            TraceOp("access", vaddr=SLOT, size=64, is_write=True),
            TraceOp("access", vaddr=SLOT + 0x8000, size=64,
                    is_write=True),  # must fault
        ]
        batched, _ = replay(trace, fault_plan=plan)
        with per_line_oracle():
            oracle, _ = replay(trace, fault_plan=plan)
        assert diff_snapshots(batched, oracle) == []
        names = [entry[1] for entry in batched["exceptions"]]
        assert names == ["OutOfPhysicalMemory", "PageFault"]

    def test_plan_is_uninstalled_after_replay(self):
        replay(generate_trace(0, 50),
               fault_plan=deterministic_mmap_plan())
        assert FAULTS.active is None
