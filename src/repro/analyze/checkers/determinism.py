"""Determinism checker: nondeterminism sources feeding simulated state.

The whole evaluation rests on bit-identical counters for identical
inputs (the differential fuzzer and ``sweep``'s deterministic merge
both assume it), so anything that injects host entropy into the
simulation is a bug even when it "usually" agrees:

``D001``
    Unseeded randomness: module-level ``random.*`` calls (the shared
    global RNG), ``random.Random()`` with no seed, and numpy's legacy
    global ``np.random.*`` or ``default_rng()`` with no seed.
``D002``
    Wall-clock reads: ``time.time``/``time_ns`` and ``datetime`` "now"
    family anywhere; ``time.perf_counter``/``monotonic`` additionally
    in hot/simulation packages, where host timing must never leak into
    modeled state (the harness measures *host* seconds and is exempt).
``D003``
    ``id()``-based ordering (``sorted(..., key=id)`` and friends):
    CPython addresses vary run to run, so any order derived from them
    is nondeterministic.
``D004``
    Iterating a set in a ``for`` statement or comprehension: set order
    depends on insertion history and hashing, so set-driven loops
    feeding counters or merges diverge across processes.  Sort first
    (``sorted(s)``) or keep a list.
"""

from __future__ import annotations

import ast
from typing import List, Optional

from repro.analyze.engine import Checker, Finding, ScopeContext

#: Module-level functions of :mod:`random` that use the global RNG.
GLOBAL_RANDOM_FNS = frozenset({
    "random", "randrange", "randint", "randbytes", "choice", "choices",
    "shuffle", "sample", "uniform", "triangular", "betavariate",
    "expovariate", "gammavariate", "gauss", "lognormvariate",
    "normalvariate", "vonmisesvariate", "paretovariate",
    "weibullvariate", "getrandbits", "seed",
})

#: Legacy numpy global-RNG entry points.
NUMPY_GLOBAL_FNS = frozenset({
    "rand", "randn", "randint", "random", "choice", "shuffle",
    "permutation", "seed", "random_sample", "standard_normal", "uniform",
})

#: Wall-clock calls that are nondeterministic everywhere.
WALLCLOCK_ANYWHERE = frozenset({
    "time.time", "time.time_ns",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
})

#: Host-monotonic clocks: fine for harness-side host timing, banned in
#: simulation packages where they could leak into modeled quantities.
WALLCLOCK_HOT = frozenset({
    "time.perf_counter", "time.perf_counter_ns",
    "time.monotonic", "time.monotonic_ns", "time.process_time",
})

#: Packages where even monotonic host clocks are suspect: the hot
#: simulation layers plus ``repro.core`` (the platform publishes host
#: seconds, which must stay clearly separated — baselined — from
#: simulated cycles).
PERF_COUNTER_SENSITIVE_PREFIXES = (
    "repro.machine", "repro.kernel", "repro.runtime", "repro.native",
    "repro.core",
)


class DeterminismChecker(Checker):
    name = "determinism"
    rules = {
        "D001": "unseeded RNG (global random module / numpy global "
                "state / Random() without a seed)",
        "D002": "wall-clock read in simulation code",
        "D003": "ordering derived from id() is nondeterministic "
                "across runs",
        "D004": "iteration over a set drives state; set order is "
                "nondeterministic across processes",
    }

    # ------------------------------------------------------------------
    # D001 + D002 + D003: call sites
    # ------------------------------------------------------------------
    def visit_Call(self, node: ast.Call,
                   ctx: ScopeContext) -> Optional[List[Finding]]:
        name = ctx.module.dotted_name(node.func)
        if name is None:
            return None
        findings: List[Finding] = []
        unseeded = self._unseeded_random(node, name)
        if unseeded:
            findings.append(ctx.finding(
                "D001", node,
                f"{unseeded}; seed an explicit random.Random(seed) / "
                f"default_rng(seed) instead",
                token=f"{ctx.qualname()}:{name}"))
        wallclock = self._wallclock(ctx, name)
        if wallclock:
            findings.append(ctx.finding(
                "D002", node, wallclock,
                token=f"{ctx.qualname()}:{name}"))
        if self._id_key(ctx, node, name):
            findings.append(ctx.finding(
                "D003", node,
                f"{name}(..., key=id) orders by object address, which "
                f"changes run to run; key on a stable field instead",
                token=f"{ctx.qualname()}:id-order"))
        return findings or None

    @staticmethod
    def _unseeded_random(node: ast.Call, name: str) -> Optional[str]:
        parts = name.split(".")
        if name == "random.Random" or name == "random.SystemRandom":
            if not node.args and not any(k.arg == "x" for k in node.keywords):
                return f"{name}() constructed without a seed"
            return None
        if len(parts) == 2 and parts[0] == "random" \
                and parts[1] in GLOBAL_RANDOM_FNS:
            return f"{name}() uses the process-global RNG"
        if parts[:2] == ["numpy", "random"] and len(parts) == 3:
            if parts[2] == "default_rng":
                if not node.args and not node.keywords:
                    return "numpy.random.default_rng() without a seed"
                return None
            if parts[2] in NUMPY_GLOBAL_FNS:
                return f"{name}() uses numpy's global RNG state"
        return None

    @staticmethod
    def _wallclock(ctx: ScopeContext, name: str) -> Optional[str]:
        if name in WALLCLOCK_ANYWHERE:
            return (f"{name}() reads the wall clock; simulated state "
                    f"must not depend on host time")
        if name in WALLCLOCK_HOT and ctx.module.name.startswith(
                PERF_COUNTER_SENSITIVE_PREFIXES):
            return (f"{name}() reads a host clock inside a simulation "
                    f"package; host timing belongs in the harness")
        return None

    @staticmethod
    def _id_key(ctx: ScopeContext, node: ast.Call, name: str) -> bool:
        ordering = name in {"sorted", "min", "max"} or (
            isinstance(node.func, ast.Attribute) and node.func.attr == "sort")
        if not ordering:
            return False
        for keyword in node.keywords:
            if keyword.arg == "key" and _calls_or_is_id(keyword.value):
                return True
        return False

    # ------------------------------------------------------------------
    # D004: set iteration
    # ------------------------------------------------------------------
    def visit_For(self, node: ast.For,
                  ctx: ScopeContext) -> Optional[List[Finding]]:
        return self._check_iter(node.iter, ctx)

    def visit_comprehension(self, node: ast.comprehension,
                            ctx: ScopeContext) -> Optional[List[Finding]]:
        return self._check_iter(node.iter, ctx)

    def _check_iter(self, iter_node: ast.AST,
                    ctx: ScopeContext) -> Optional[List[Finding]]:
        reason = _set_expression(iter_node, ctx)
        if reason is None:
            return None
        return [ctx.finding(
            "D004", iter_node,
            f"iterating {reason}: set order is nondeterministic; wrap "
            f"in sorted(...) or keep an ordered container",
            token=f"{ctx.qualname()}:set-iter")]


def _calls_or_is_id(node: ast.AST) -> bool:
    if isinstance(node, ast.Name) and node.id == "id":
        return True
    if isinstance(node, ast.Lambda):
        return any(isinstance(sub, ast.Call)
                   and isinstance(sub.func, ast.Name) and sub.func.id == "id"
                   for sub in ast.walk(node.body))
    return False


def _set_expression(node: ast.AST, ctx: ScopeContext) -> Optional[str]:
    """Describe ``node`` if it statically evaluates to a set."""
    if isinstance(node, ast.Set):
        return "a set literal"
    if isinstance(node, ast.SetComp):
        return "a set comprehension"
    if isinstance(node, ast.Call):
        name = ctx.module.dotted_name(node.func)
        if name in ("set", "frozenset"):
            return f"{name}(...)"
        return None
    if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitAnd, ast.BitOr, ast.Sub, ast.BitXor)):
        left = _set_expression(node.left, ctx)
        right = _set_expression(node.right, ctx)
        if left or right:
            return "a set expression"
    return None
