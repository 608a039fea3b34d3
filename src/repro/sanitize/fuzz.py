"""Differential-oracle fuzzer for the simulator's access path.

The simulator has one access path (:meth:`SimThread.access` /
:meth:`SimThread.access_block` / :meth:`CorePath.access_run`) and a
per-line oracle (:meth:`SimThread.access_per_line`) whose counters are
contractually bit-identical.  The oracle is not selectable at run time:
:func:`per_line_oracle` patches it in for the duration of a ``with``
block.  This module *continuously proves* the contract: it generates
seeded random traces — mixed read/write accesses at arbitrary
alignment and page-straddling sizes, ``mmap``/``munmap``/``mbind``
interleavings, multi-thread schedules across both sockets, cache drains
and flushes, and deliberately-faulting operations — and replays each
trace on twin machines, once normally and once under the oracle,
comparing full counter snapshots at the end.

On divergence the failing trace is *shrunk* (minimal failing prefix by
bisection, then greedy op removal) so the report is a handful of
operations a human can replay by hand, and written out as JSONL.

The invariant sanitizer rides along: replays run the conservation-law
checks every ``check_every`` operations, so a bug that corrupts *both*
replays identically (a lost write-back, a leaked frame) is still caught
even though the differential comparison cannot see it.

:func:`planted_bug` installs known counter bugs for self-tests and CI:
``short-block`` makes the access path drop the trailing line of
multi-line blocks (caught by the differential oracle, shrinks to a
single access), ``clean-write`` issues every fifth one-line write as a
read (the lost dirty bit is caught by the differential oracle), and
``lost-writeback`` makes the machine drop every fifth memory write on
the floor in both replays (invisible to the differential oracle,
caught by the sanitizer's write-conservation law).
"""

from __future__ import annotations

import json
import random
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.config import PAGE_SIZE
from repro.faults.plan import FAULTS, FaultPlan
from repro.kernel.process import SimThread
from repro.kernel.vm import Kernel
from repro.machine.numa import NumaMachine
from repro.machine.topology import emulation_platform_spec
from repro.sanitize.invariants import Sanitizer, Violation

# ----------------------------------------------------------------------
# Trace model
# ----------------------------------------------------------------------

#: Operation kinds a trace may contain.
OP_KINDS = ("access", "mmap", "munmap", "drain", "flush", "tick")


@dataclass
class TraceOp:
    """One operation of a fuzz trace (JSONL-serialisable)."""

    kind: str
    thread: int = 0
    vaddr: int = 0
    size: int = 0
    is_write: bool = False
    node: int = 0
    pages: int = 1

    def to_dict(self) -> Dict[str, object]:
        return {"kind": self.kind, "thread": self.thread,
                "vaddr": self.vaddr, "size": self.size,
                "is_write": self.is_write, "node": self.node,
                "pages": self.pages}

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "TraceOp":
        return cls(**data)  # type: ignore[arg-type]

    def describe(self) -> str:
        if self.kind == "access":
            rw = "W" if self.is_write else "R"
            return (f"access t{self.thread} {rw} "
                    f"{self.vaddr:#x}+{self.size}")
        if self.kind == "mmap":
            return f"mmap {self.vaddr:#x} {self.pages}p node{self.node}"
        if self.kind == "munmap":
            return f"munmap {self.vaddr:#x} {self.pages}p"
        if self.kind == "drain":
            return f"drain t{self.thread}"
        if self.kind == "tick":
            return "tick"
        return "flush"


# --- virtual layout of the fuzz harness process -----------------------
#: Always-mapped base regions (one per memory kind).
DRAM_BASE = 0x100000
PCM_BASE = 0x200000
BASE_PAGES = 8
#: Dynamic mmap/munmap slots.
SLOT_BASE = 0x400000
SLOT_PAGES = 4  # maximum pages per slot
NUM_SLOTS = 8
#: A hole that is never mapped (deterministic PageFault target).
HOLE_BASE = 0x900000
#: Simulated threads: two on socket 0, one on the PCM socket.
THREAD_SOCKETS = (0, 0, 1)


def _slot_addr(slot: int) -> int:
    return SLOT_BASE + slot * SLOT_PAGES * PAGE_SIZE


# ----------------------------------------------------------------------
# Trace generation
# ----------------------------------------------------------------------

_ACCESS_SIZES = (1, 4, 8, 64, 100, 256, 1024, 4096, 8192, 12288)
_ACCESS_WEIGHTS = (12, 12, 12, 16, 10, 10, 10, 8, 6, 4)


def generate_trace(seed: int, ops: int,
                   tick_every: int = 0) -> List[TraceOp]:
    """Deterministic random trace of ``ops`` operations.

    A pure function of ``(seed, ops, tick_every)``: the generator keeps
    its own model of which dynamic slots are mapped, so it never has to
    look at a machine.  ~70 % accesses (half writes, sizes up to three
    pages, arbitrary alignment), the rest mmap/munmap/drain/flush plus
    a few percent of deliberately-faulting operations, whose exceptions
    are part of the compared behaviour.

    ``tick_every > 0`` interleaves a placement-safepoint ``tick`` op
    after every that many generated ops.  The ticks are inserted as a
    post-pass so the underlying random trace for a given ``(seed,
    ops)`` stays byte-identical to the historical generator — existing
    seeds and shrunk artifacts keep reproducing.
    """
    rng = random.Random(seed)
    mapped: Dict[int, int] = {}  # slot -> pages
    trace: List[TraceOp] = []
    for _ in range(ops):
        roll = rng.random()
        if roll < 0.70:
            trace.append(_gen_access(rng, mapped))
        elif roll < 0.78:
            free = [s for s in range(NUM_SLOTS) if s not in mapped]
            if free:
                slot = rng.choice(free)
                pages = rng.randint(1, SLOT_PAGES)
                mapped[slot] = pages
                trace.append(TraceOp("mmap", vaddr=_slot_addr(slot),
                                     pages=pages, node=rng.randint(0, 1)))
            else:
                trace.append(_gen_access(rng, mapped))
        elif roll < 0.86:
            if mapped:
                slot = rng.choice(sorted(mapped))
                pages = mapped.pop(slot)
                trace.append(TraceOp("munmap", vaddr=_slot_addr(slot),
                                     pages=pages))
            else:
                trace.append(_gen_access(rng, mapped))
        elif roll < 0.90:
            trace.append(TraceOp("drain",
                                 thread=rng.randrange(len(THREAD_SOCKETS))))
        elif roll < 0.92:
            trace.append(TraceOp("flush"))
        else:
            trace.append(_gen_hostile(rng, mapped))
    if tick_every > 0:
        ticked: List[TraceOp] = []
        for index, op in enumerate(trace):
            ticked.append(op)
            if (index + 1) % tick_every == 0:
                ticked.append(TraceOp("tick"))
        trace = ticked
    return trace


def _gen_access(rng: random.Random, mapped: Dict[int, int]) -> TraceOp:
    thread = rng.randrange(len(THREAD_SOCKETS))
    size = rng.choices(_ACCESS_SIZES, weights=_ACCESS_WEIGHTS, k=1)[0]
    region = rng.random()
    if region < 0.45:
        base, nbytes = DRAM_BASE, BASE_PAGES * PAGE_SIZE
    elif region < 0.80 or not mapped:
        base, nbytes = PCM_BASE, BASE_PAGES * PAGE_SIZE
    else:
        slot = rng.choice(sorted(mapped))
        base, nbytes = _slot_addr(slot), mapped[slot] * PAGE_SIZE
    size = min(size, nbytes)
    offset = rng.randrange(0, nbytes - size + 1)
    return TraceOp("access", thread=thread, vaddr=base + offset, size=size,
                   is_write=rng.random() < 0.5)


def _gen_hostile(rng: random.Random, mapped: Dict[int, int]) -> TraceOp:
    """An operation that must fail — identically — in both replays."""
    kind = rng.randrange(4)
    if kind == 0:
        # Access straight into the unmapped hole (PageFault), possibly
        # straddling from a region that does not exist at all.
        return TraceOp("access", thread=rng.randrange(len(THREAD_SOCKETS)),
                       vaddr=HOLE_BASE + rng.randrange(0, 4 * PAGE_SIZE),
                       size=rng.choice((8, 64, 4096)),
                       is_write=rng.random() < 0.5)
    if kind == 1:
        # Remap an always-mapped base page (MBindError: overlap).
        return TraceOp("mmap", vaddr=rng.choice((DRAM_BASE, PCM_BASE)),
                       pages=1, node=rng.randint(0, 1))
    if kind == 2:
        # Unmap a range with an unmapped tail: the atomic munmap must
        # fault without releasing anything.
        if mapped:
            slot = rng.choice(sorted(mapped))
            return TraceOp("munmap", vaddr=_slot_addr(slot),
                           pages=SLOT_PAGES + 1)
        return TraceOp("munmap", vaddr=HOLE_BASE, pages=1)
    # Unaligned mmap (MBindError).
    return TraceOp("mmap", vaddr=HOLE_BASE + 1, pages=1,
                   node=rng.randint(0, 1))


# ----------------------------------------------------------------------
# Replay
# ----------------------------------------------------------------------

class TraceReplayer:
    """Replays a trace on a fresh twin machine.

    Accesses are issued through the plain ``thread.access`` entry
    point, so they take the production path — or the per-line walk,
    when replayed inside :func:`per_line_oracle`.  Everything else
    (kernel calls, drains, flushes) is the same on both sides and must
    leave identical state.

    ``placement`` selects the kernel page-placement policy for the
    replayed process (see :mod:`repro.kernel.placement`); ``tick`` ops
    run the policy's migration safepoint, so the migrate policy's
    promotion/demotion machinery is fuzzed differentially too.
    ``machine`` replaces the emulation platform with a fresh machine of
    another geometry (tests that need small, predictable cache sets).
    """

    def __init__(self, placement: str = "static",
                 machine: Optional[NumaMachine] = None) -> None:
        self.placement = placement
        self.machine = (emulation_platform_spec().build()
                        if machine is None else machine)
        self.kernel = Kernel(self.machine, placement=placement)
        self.process = self.kernel.create_process()
        base_bytes = BASE_PAGES * PAGE_SIZE
        self.kernel.mmap_bind(self.process, DRAM_BASE, base_bytes,
                              node_id=0, tag="fuzz.dram")
        self.kernel.mmap_bind(self.process, PCM_BASE, base_bytes,
                              node_id=1, tag="fuzz.pcm")
        self.threads = [self.process.spawn_thread(socket_id=socket)
                        for socket in THREAD_SOCKETS]
        self.core_paths = [t.core_path for t in self.threads]
        self.exceptions: List[Tuple[int, str, str]] = []

    def apply(self, op: TraceOp) -> None:
        """Execute one operation (exceptions propagate to the caller)."""
        if op.kind == "access":
            self.threads[op.thread].access(op.vaddr, op.size, op.is_write)
        elif op.kind == "mmap":
            self.kernel.mmap_bind(self.process, op.vaddr,
                                  op.pages * PAGE_SIZE, node_id=op.node)
        elif op.kind == "munmap":
            self.kernel.munmap(self.process, op.vaddr,
                               op.pages * PAGE_SIZE)
        elif op.kind == "drain":
            self.core_paths[op.thread].drain()
        elif op.kind == "flush":
            self.machine.flush_all(self.core_paths)
        elif op.kind == "tick":
            self.kernel.placement_tick()
        else:
            raise ValueError(f"unknown op kind {op.kind!r}")

    def snapshot(self) -> Dict[str, object]:
        """Flat counter snapshot for the differential comparison."""
        snap: Dict[str, object] = {}
        for node in self.machine.nodes:
            prefix = f"node{node.node_id}"
            snap[f"{prefix}.read_lines"] = node.read_lines
            snap[f"{prefix}.write_lines"] = node.write_lines
            snap[f"{prefix}.migration_write_lines"] = \
                node.migration_write_lines
            snap[f"{prefix}.frames_in_use"] = node.frames_in_use
            snap[f"{prefix}.writes_by_tag"] = tuple(
                sorted(node.writes_by_tag.items()))
        for socket in self.machine.sockets:
            stats = socket.llc.stats
            snap[f"llc{socket.socket_id}"] = (
                stats.hits, stats.misses, stats.evictions,
                stats.dirty_evictions, socket.llc.flushed_dirty)
        for index, path in enumerate(self.core_paths):
            if path.private is not None:
                stats = path.private.stats
                snap[f"l2.t{index}"] = (stats.hits, stats.misses,
                                        stats.evictions,
                                        stats.dirty_evictions)
            snap[f"cycles.t{index}"] = self.threads[index].cycles
        snap["qpi_crossings"] = self.machine.qpi_crossings
        kernel = self.kernel
        snap["kernel"] = (kernel.mmap_calls, kernel.munmap_calls,
                          kernel.pages_mapped, kernel.pages_unmapped,
                          kernel.page_faults, kernel.pages_migrated,
                          kernel.migration_writes)
        snap["exceptions"] = tuple(self.exceptions)
        return snap


def replay(trace: List[TraceOp],
           fault_plan: Optional[FaultPlan] = None,
           check_every: int = 0, placement: str = "static"
           ) -> Tuple[Dict[str, object], List[Violation]]:
    """Replay ``trace`` on a fresh machine (under :func:`per_line_oracle`
    for the reference side).

    Per-op exceptions are recorded (index, type, message) rather than
    propagated — both sides must fail the same way, so failures are
    part of the compared snapshot.  ``check_every > 0`` runs the
    invariant sanitizer's machine+kernel laws every that many ops (and
    once at the end); its violations are returned alongside the
    snapshot.  ``fault_plan`` is (re)installed for the duration of the
    replay, arrivals reset, so faults fire identically on both sides.
    ``placement`` selects the replayed process's page-placement policy.
    """
    replayer = TraceReplayer(placement=placement)
    sanitizer = Sanitizer()
    sanitizer.strict = False
    if fault_plan is not None:
        FAULTS.install(fault_plan)
    try:
        for index, op in enumerate(trace):
            try:
                replayer.apply(op)
            except Exception as exc:  # noqa: BLE001 - compared, not handled
                replayer.exceptions.append(
                    (index, type(exc).__name__, str(exc)))
            if check_every and (index + 1) % check_every == 0:
                sanitizer.check_machine(replayer.machine,
                                        site=f"fuzz.op{index}")
                sanitizer.check_kernel(replayer.kernel,
                                       site=f"fuzz.op{index}")
    finally:
        if fault_plan is not None:
            FAULTS.uninstall()
    # Make all dirty state visible in the node counters before
    # snapshotting, so write-path bugs cannot hide in the caches.
    replayer.machine.flush_all(replayer.core_paths)
    if check_every:
        sanitizer.check_machine(replayer.machine, site="fuzz.final")
        sanitizer.check_kernel(replayer.kernel, site="fuzz.final")
    return replayer.snapshot(), sanitizer.violations


def diff_snapshots(candidate: Dict[str, object],
                   reference: Dict[str, object]) -> List[str]:
    """Names of counters that differ between the two replays."""
    keys = set(candidate) | set(reference)
    return sorted(k for k in keys if candidate.get(k) != reference.get(k))


# ----------------------------------------------------------------------
# Shrinking (delta debugging)
# ----------------------------------------------------------------------

def shrink_trace(trace: List[TraceOp],
                 still_fails: Callable[[List[TraceOp]], bool],
                 max_evals: int = 250) -> Tuple[List[TraceOp], int]:
    """Minimise a failing trace; returns ``(shrunk, predicate_evals)``.

    Phase 1 bisects for the minimal failing *prefix* (divergences are
    monotone in the prefix: once the counters differ, running more
    identical operations cannot un-differ them — both sides process
    the suffix on already-different state).  Phase 2 greedily deletes
    ops from the back while the predicate still fails, bounded by
    ``max_evals`` total predicate evaluations.
    """
    evals = 0

    def check(candidate: List[TraceOp]) -> bool:
        nonlocal evals
        evals += 1
        return still_fails(candidate)

    # Phase 1: minimal failing prefix.  Invariant: trace[:hi] fails.
    lo, hi = 0, len(trace)
    while lo + 1 < hi and evals < max_evals:
        mid = (lo + hi) // 2
        if check(trace[:mid]):
            hi = mid
        else:
            lo = mid
    shrunk = trace[:hi]

    # Phase 2: greedy op deletion, coarse chunks first, back to front
    # (the last op is load-bearing — it made the prefix minimal).
    chunk = max(1, len(shrunk) // 4)
    while chunk >= 1 and evals < max_evals:
        index = len(shrunk) - 1 - chunk
        progressed = False
        while index >= 0 and evals < max_evals:
            candidate = shrunk[:index] + shrunk[index + chunk:]
            if candidate and check(candidate):
                shrunk = candidate
                progressed = True
            index -= chunk
        if chunk == 1 and not progressed:
            break
        chunk //= 2
    return shrunk, evals


# ----------------------------------------------------------------------
# The fuzzer
# ----------------------------------------------------------------------

@dataclass
class DivergenceReport:
    """A confirmed candidate-vs-reference counter divergence."""

    seed: int
    trace_ops: int
    keys: List[str]
    shrunk: List[TraceOp]
    predicate_evals: int
    candidate: Dict[str, object]
    reference: Dict[str, object]
    placement: str = "static"

    def to_dict(self) -> Dict[str, object]:
        return {
            "seed": self.seed,
            "trace_ops": self.trace_ops,
            "placement": self.placement,
            "keys": self.keys,
            "shrunk": [op.to_dict() for op in self.shrunk],
            "predicate_evals": self.predicate_evals,
            "diff": {key: {"candidate": repr(self.candidate.get(key)),
                           "oracle": repr(self.reference.get(key))}
                     for key in self.keys},
        }

    def describe(self) -> str:
        lines = [f"divergence at seed {self.seed} "
                 f"(access path vs per-line oracle, "
                 f"{self.trace_ops} ops), {len(self.keys)} counter(s) "
                 f"differ: {', '.join(self.keys[:6])}"
                 + ("..." if len(self.keys) > 6 else ""),
                 f"shrunk to {len(self.shrunk)} op(s) "
                 f"in {self.predicate_evals} replays:"]
        lines.extend(f"  {i:3d}: {op.describe()}"
                     for i, op in enumerate(self.shrunk))
        return "\n".join(lines)


@dataclass
class FuzzResult:
    """Outcome of one fuzz trial (one seed)."""

    seed: int
    ops: int
    divergence: Optional[DivergenceReport] = None
    violations: List[Violation] = field(default_factory=list)
    placement: str = "static"

    @property
    def ok(self) -> bool:
        return self.divergence is None and not self.violations

    def to_dict(self) -> Dict[str, object]:
        return {
            "seed": self.seed,
            "ops": self.ops,
            "ok": self.ok,
            "placement": self.placement,
            "divergence": (self.divergence.to_dict()
                           if self.divergence else None),
            "violations": [{"law": v.law, "site": v.site,
                            "detail": v.detail}
                           for v in self.violations],
        }


class DifferentialFuzzer:
    """Generate-replay-compare-shrink, one trial per seed.

    Parameters
    ----------
    ops:
        Trace length per trial.
    fault_plan:
        Optional :class:`FaultPlan` (re)installed for every replay, so
        equivalence is checked *under fault injection* too.
    shrink:
        Minimise diverging traces (disable for raw speed).
    check_every:
        Run the invariant sanitizer every N ops during replay
        (0 disables).
    placement:
        Kernel page-placement policy for both replays (see
        :mod:`repro.kernel.placement`).
    tick_every:
        Interleave a placement-safepoint ``tick`` op every N generated
        ops (0 disables; pointless without ``placement="migrate"``).
    """

    def __init__(self, ops: int = 2000,
                 fault_plan: Optional[FaultPlan] = None,
                 shrink: bool = True, check_every: int = 64,
                 max_shrink_evals: int = 250,
                 placement: str = "static",
                 tick_every: int = 0) -> None:
        from repro.kernel.placement import check_placement

        if ops <= 0:
            raise ValueError("ops must be positive")
        if tick_every < 0:
            raise ValueError("tick_every cannot be negative")
        self.ops = ops
        self.fault_plan = fault_plan
        self.shrink = shrink
        self.check_every = check_every
        self.max_shrink_evals = max_shrink_evals
        self.placement = check_placement(placement)
        self.tick_every = tick_every

    def _replay_both(self, trace: List[TraceOp], check_every: int = 0):
        """``(candidate, reference)`` replays; the reference runs under
        :func:`per_line_oracle`."""
        candidate = replay(trace, self.fault_plan, check_every,
                           placement=self.placement)
        with per_line_oracle():
            reference = replay(trace, self.fault_plan, check_every,
                               placement=self.placement)
        return candidate, reference

    def run_trial(self, seed: int) -> FuzzResult:
        trace = generate_trace(seed, self.ops, tick_every=self.tick_every)
        (candidate, violations_c), (reference, violations_r) = \
            self._replay_both(trace, self.check_every)
        result = FuzzResult(seed=seed, ops=self.ops,
                            violations=violations_c + violations_r,
                            placement=self.placement)
        keys = diff_snapshots(candidate, reference)
        if not keys:
            return result

        def still_fails(shorter: List[TraceOp]) -> bool:
            (snap_c, _), (snap_r, _) = self._replay_both(shorter)
            return bool(diff_snapshots(snap_c, snap_r))

        if self.shrink:
            shrunk, evals = shrink_trace(trace, still_fails,
                                         self.max_shrink_evals)
        else:
            shrunk, evals = trace, 0
        result.divergence = DivergenceReport(
            seed=seed, trace_ops=self.ops, keys=keys, shrunk=shrunk,
            predicate_evals=evals, candidate=candidate,
            reference=reference, placement=self.placement)
        return result

    def run(self, seed: int = 0, trials: int = 1) -> List[FuzzResult]:
        return [self.run_trial(seed + offset) for offset in range(trials)]


def write_trace_jsonl(path: str, trace: List[TraceOp]) -> int:
    """Write a trace as JSON lines (the divergence artifact format)."""
    with open(path, "w", encoding="utf-8") as handle:
        for op in trace:
            handle.write(json.dumps(op.to_dict(), sort_keys=True) + "\n")
    return len(trace)


def read_trace_jsonl(path: str) -> List[TraceOp]:
    with open(path, "r", encoding="utf-8") as handle:
        return [TraceOp.from_dict(json.loads(line))
                for line in handle if line.strip()]


# ----------------------------------------------------------------------
# The per-line oracle and planted bugs (self-tests and CI canaries)
# ----------------------------------------------------------------------

def _objects_per_line(thread: SimThread, vaddr: int, size: int,
                      count: int, is_write: bool) -> int:
    """The oracle's ``access_objects``: one per-line walk per object."""
    cycles = 0
    for _ in range(count):
        cycles += thread.access_per_line(vaddr, size, is_write)
        vaddr += size
    return cycles


@contextmanager
def per_line_oracle():
    """Route every :class:`SimThread` access through the per-line walk.

    For the duration of the block ``SimThread.access`` and
    ``SimThread.access_block`` both point at
    :meth:`SimThread.access_per_line`, and ``SimThread.access_objects``
    walks its objects one by one through it, so nothing reaches the
    fused ``CorePath.access_run`` loops or the boundary re-touch count.
    On exit whatever was installed on entry comes back — a
    :func:`planted_bug` patch included, so the
    oracle nests inside ``planted_bug("short-block")`` and the
    reference side stays clean.  This is the oracle's only way in; the
    differential fuzzer, the golden-run oracle cases and the hot-path
    benchmark baseline all go through it.
    """
    original_access = SimThread.access
    original_block = SimThread.access_block
    original_objects = SimThread.access_objects
    SimThread.access = SimThread.access_per_line  # type: ignore[method-assign]
    SimThread.access_block = SimThread.access_per_line  # type: ignore[method-assign]
    SimThread.access_objects = _objects_per_line  # type: ignore[method-assign]
    try:
        yield
    finally:
        SimThread.access = original_access  # type: ignore[method-assign]
        SimThread.access_block = original_block  # type: ignore[method-assign]
        SimThread.access_objects = original_objects  # type: ignore[method-assign]


PLANTED_BUGS = ("short-block", "clean-write", "lost-writeback")


@contextmanager
def planted_bug(name: str):
    """Temporarily install a known counter bug.

    ``short-block``
        The access path silently drops the trailing line of every
        multi-line block — a differential divergence the fuzzer must
        catch and shrink to a single access op.
    ``clean-write``
        Every fifth one-line write touch per thread is issued as a
        read, so the line it writes never turns dirty — a differential
        divergence in the write-back counters.
    ``lost-writeback``
        The machine drops every fifth memory write on the floor (per
        machine, so both replays lose the *same* writes and the
        differential comparison stays clean) — only the sanitizer's
        write-conservation law can catch it.
    """
    if name == "short-block":
        original_block = SimThread.access_block

        def buggy_block(self, vaddr: int, size: int, is_write: bool) -> int:
            last_line_start = ((vaddr + size - 1) >> 6) << 6
            if last_line_start > vaddr:
                size = last_line_start - vaddr  # drop the trailing line
            return original_block(self, vaddr, size, is_write)

        SimThread.access_block = buggy_block  # type: ignore[method-assign]
        try:
            yield
        finally:
            SimThread.access_block = original_block  # type: ignore[method-assign]
    elif name == "clean-write":
        original_access = SimThread.access

        def buggy_access(self, vaddr: int, size: int,
                         is_write: bool) -> int:
            if is_write and size > 0 \
                    and vaddr >> 6 == (vaddr + size - 1) >> 6:
                count = getattr(self, "_clean_write_count", 0) + 1
                self._clean_write_count = count
                if count % 5 == 0:
                    is_write = False  # the dirty bit is lost
            return original_access(self, vaddr, size, is_write)

        SimThread.access = buggy_access  # type: ignore[method-assign]
        try:
            yield
        finally:
            SimThread.access = original_access  # type: ignore[method-assign]
    elif name == "lost-writeback":
        from repro.machine.numa import NumaMachine
        original_write = NumaMachine.memory_write

        def buggy_write(self, line: int) -> None:
            count = getattr(self, "_lost_writeback_count", 0) + 1
            self._lost_writeback_count = count
            if count % 5 == 0:
                return  # the write never reaches the node counters
            original_write(self, line)

        NumaMachine.memory_write = buggy_write  # type: ignore[method-assign]
        try:
            yield
        finally:
            NumaMachine.memory_write = original_write  # type: ignore[method-assign]
    else:
        raise ValueError(
            f"unknown planted bug {name!r}; choose from {PLANTED_BUGS}")
