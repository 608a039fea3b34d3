"""repro.analyze: the static-analysis framework behind ``repro lint``.

One AST parse per file, a shared walk, and five project-specific
checkers (layering, determinism, counter-discipline, hook-coverage,
span-balance) with a committed, justified baseline.  See
``DESIGN.md`` ("Static analysis") for the policy and ``repro lint
--explain`` for the rule table.
"""

from repro.analyze.baseline import Baseline, BaselineError, TODO_REASON
from repro.analyze.checkers import (ALL_CHECKERS, filter_findings,
                                    make_checkers, rule_table)
from repro.analyze.config import LintConfig
from repro.analyze.engine import (AnalysisReport, Analyzer, Checker,
                                  Finding, PARSE_ERROR_RULE,
                                  module_name_for)

__all__ = [
    "ALL_CHECKERS",
    "AnalysisReport",
    "Analyzer",
    "Baseline",
    "BaselineError",
    "Checker",
    "Finding",
    "LintConfig",
    "PARSE_ERROR_RULE",
    "TODO_REASON",
    "filter_findings",
    "make_checkers",
    "module_name_for",
    "rule_table",
]
