"""Counter-discipline checker (C001, C002, C003).

The registered counters (:data:`repro.analyze.config.DEFAULT_COUNTERS`)
are the numbers the paper's figures are made of — PCM write counts,
cache hit/miss totals, kernel fault counts, wear.  The fuzzer proves
they stay identical across engines, but only for mutation sites it
knows about; a stray ``kernel.page_faults += 1`` from a neighbouring
module silently changes ground truth without tripping any invariant.

``C001`` therefore allows writes to a registered counter attribute only

* from a method of the counter's owning class (``self.hits += n`` in
  ``CacheLevel``, including through a ``stats = self.stats`` alias), or
* from a function declared in ``counter-mutators`` — the batched
  engine's fused loops, where the trade is explicit and fuzzed.

Everything else should go through a mutator method on the owner (e.g.
``Kernel.count_page_fault``), which keeps the set of sites that can
move a published number greppable.

The project pass adds provenance in the other direction:

``C002`` — a registered counter whose owning class is in the scanned
project has no increment site anywhere (no augmented assignment, no
subscript write like ``self.wear[line] = ...``, no self-referencing
reassignment).  A counter that is initialised but never incremented is
a dead number that will ship as a silent zero in run reports.

``C003`` — a ``counter-mutators`` allowlist entry whose module was
scanned but whose function no longer exists: a stale exemption is a
hole the next refactor can silently walk through.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Set, Tuple

from repro.analyze.engine import Checker, Finding, ScopeContext
from repro.analyze.graph import ProjectContext


class CounterDisciplineChecker(Checker):
    name = "counters"
    rules = {
        "C001": "registered counter mutated outside its owning class "
                "or a declared counter-mutator",
        "C002": "registered counter has no reachable increment site "
                "anywhere in the project",
        "C003": "counter-mutator allowlist entry names a function "
                "that no longer exists",
    }

    def visit_AugAssign(self, node: ast.AugAssign,
                        ctx: ScopeContext) -> Optional[List[Finding]]:
        return self._check_target(node.target, ctx)

    def visit_Assign(self, node: ast.Assign,
                     ctx: ScopeContext) -> Optional[List[Finding]]:
        findings: List[Finding] = []
        for target in node.targets:
            for element in _flatten_target(target):
                found = self._check_target(element, ctx)
                if found:
                    findings.extend(found)
        return findings or None

    def _check_target(self, target: ast.AST,
                      ctx: ScopeContext) -> Optional[List[Finding]]:
        if not isinstance(target, ast.Attribute):
            return None
        owners = ctx.config.counters.get(target.attr)
        if owners is None:
            return None
        if ctx.config.is_counter_mutator(ctx.module.name, ctx.qualname()):
            return None
        depth = ctx.self_depth(target)
        if depth is not None and ctx.current_class in owners:
            return None
        holder = ctx.module.dotted_name(target.value) or "<expr>"
        return [ctx.finding(
            "C001", target,
            f"write to registered counter '{target.attr}' of {holder} "
            f"outside owning class {owners}; add a mutator method on "
            f"the owner or declare this function in counter-mutators",
            token=f"{ctx.qualname()}:{target.attr}")]

    # ------------------------------------------------------------------
    # Project pass: provenance (C002) and allowlist hygiene (C003)
    # ------------------------------------------------------------------
    def finish_project(self, project: ProjectContext
                       ) -> Optional[List[Finding]]:
        findings: List[Finding] = []
        findings.extend(self._check_provenance(project))
        findings.extend(self._check_allowlist(project))
        return findings or None

    def _check_provenance(self, project: ProjectContext) -> List[Finding]:
        incremented = _incremented_attrs(project)
        classes_by_name: Dict[str, List] = {}
        for cls in project.index.classes.values():
            classes_by_name.setdefault(cls.name.rsplit(".", 1)[-1],
                                       []).append(cls)
        findings: List[Finding] = []
        for counter, owners in sorted(project.config.counters.items()):
            present = [cls for owner in owners
                       for cls in classes_by_name.get(owner, [])]
            if not present:
                continue  # owning classes outside this scan's scope
            if counter in incremented:
                continue
            anchor = min(present, key=lambda c: (c.module, c.name))
            symbols = project.index.modules[anchor.module]
            owner_names = ", ".join(sorted(c.name for c in present))
            findings.append(Finding(
                rule="C002", path=symbols.display_path,
                line=anchor.lineno, col=1,
                message=f"registered counter '{counter}' (owned by "
                        f"{owner_names}) is never incremented anywhere "
                        f"in the project; it will report a silent zero",
                key=f"C002::{anchor.module}::{counter}",
                symbol=anchor.name,
            ))
        return findings

    def _check_allowlist(self, project: ProjectContext) -> List[Finding]:
        findings: List[Finding] = []
        for entry in project.config.counter_mutators:
            if "::" not in entry:
                continue
            module_name, qualname = entry.split("::", 1)
            symbols = project.index.modules.get(module_name)
            if symbols is None:
                continue  # module outside this scan's scope
            if qualname in symbols.functions:
                continue
            findings.append(Finding(
                rule="C003", path=symbols.display_path, line=1, col=1,
                message=f"counter-mutators entry '{entry}' names a function "
                        f"that does not exist in {module_name}; remove "
                        f"the stale exemption",
                key=f"C003::{module_name}::{qualname}",
                symbol="<module>",
            ))
        return findings


def _incremented_attrs(project: ProjectContext) -> Set[str]:
    """Attribute names with a genuine increment site in any module.

    Plain ``self.hits = 0`` initialisation does not count; augmented
    assignment, subscript writes (``self.wear[line] = ...``), and
    self-referencing reassignment (``k.hits = k.hits + 1``) do.
    """
    incremented: Set[str] = set()
    for module in project.modules:
        for node in ast.walk(module.tree):
            value_attrs: Set[str] = set()
            if isinstance(node, ast.AugAssign):
                targets: List[Tuple[ast.AST, bool]] = [(node.target, True)]
            elif isinstance(node, ast.Assign):
                value_attrs = {n.attr for n in ast.walk(node.value)
                               if isinstance(n, ast.Attribute)}
                targets = []
                for target in node.targets:
                    for element in _flatten_target(target):
                        targets.append((element, False))
            else:
                continue
            for target, always in targets:
                subscripted = False
                while isinstance(target, ast.Subscript):
                    subscripted = True
                    target = target.value
                if not isinstance(target, ast.Attribute):
                    continue
                if always or subscripted or \
                        target.attr in value_attrs:
                    incremented.add(target.attr)
    return incremented


def _flatten_target(target: ast.AST) -> List[ast.AST]:
    if isinstance(target, (ast.Tuple, ast.List)):
        flat: List[ast.AST] = []
        for element in target.elts:
            flat.extend(_flatten_target(element))
        return flat
    if isinstance(target, ast.Starred):
        return _flatten_target(target.value)
    return [target]
