"""Checker registry for ``repro lint``.

Adding a checker: subclass :class:`repro.analyze.engine.Checker`,
declare ``name`` and ``rules``, implement ``visit_<NodeType>`` methods,
and append the class to :data:`ALL_CHECKERS`.  The engine parses each
file once and shares the walk, so a new checker costs only its visit
functions.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple, Type

from repro.analyze.engine import Checker, Finding
from repro.analyze.checkers.counters import CounterDisciplineChecker
from repro.analyze.checkers.determinism import DeterminismChecker
from repro.analyze.checkers.hooks import HookCoverageChecker
from repro.analyze.checkers.layering import LayeringChecker
from repro.analyze.checkers.spans import SpanBalanceChecker

ALL_CHECKERS: Tuple[Type[Checker], ...] = (
    LayeringChecker,
    DeterminismChecker,
    CounterDisciplineChecker,
    HookCoverageChecker,
    SpanBalanceChecker,
)


def make_checkers() -> List[Checker]:
    """Fresh instances of every registered checker."""
    return [cls() for cls in ALL_CHECKERS]


def rule_table() -> Dict[str, Tuple[str, str]]:
    """rule id -> (checker name, description) for docs and --explain."""
    table: Dict[str, Tuple[str, str]] = {}
    for cls in ALL_CHECKERS:
        for rule, description in cls.rules.items():
            table[rule] = (cls.name, description)
    return table


def _matches(finding: Finding, patterns: Sequence[str],
             owners: Dict[str, str]) -> bool:
    """A pattern matches a finding by rule id or checker name."""
    checker = owners.get(finding.rule, "")
    return any(pattern == finding.rule or pattern == checker
               for pattern in patterns)


def filter_findings(findings: List[Finding],
                    select: Optional[Sequence[str]] = None,
                    ignore: Optional[Sequence[str]] = None) -> List[Finding]:
    """Apply --select / --ignore by rule id or checker name.

    Parse errors (``E000``) always survive filtering — a file the
    linter cannot read is never a clean file.
    """
    owners = {rule: checker for rule, (checker, _) in rule_table().items()}
    result = findings
    if select:
        result = [f for f in result
                  if f.rule == "E000" or _matches(f, select, owners)]
    if ignore:
        result = [f for f in result
                  if f.rule == "E000" or not _matches(f, ignore, owners)]
    return result
