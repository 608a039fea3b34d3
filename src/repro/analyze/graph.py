"""Project-wide symbol table for interprocedural checks.

The per-file engine (:mod:`repro.analyze.engine`) parses each module
once; this module performs the *second pass* over those same ASTs to
build a :class:`ProjectIndex`: module-qualified function and class
definitions.  The counter-discipline checks (C002, C003) read it in
``finish_project``.

Identifiers use the ``module::qualname`` form already used by the
policy config (``counter_mutators``).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Sequence

from repro.analyze.config import LintConfig
from repro.analyze.engine import ModuleUnderAnalysis


@dataclass
class FunctionInfo:
    """One ``def``/``async def``, module-qualified."""

    fid: str                    # "module::qualname"
    module: str
    qualname: str
    name: str
    lineno: int


@dataclass
class ClassInfo:
    """One class definition."""

    fid: str                    # "module::QualName"
    module: str
    name: str                   # qualname within the module
    lineno: int


@dataclass
class ModuleSymbols:
    """Everything the index knows about one project module."""

    name: str
    path: str
    display_path: str
    module: ModuleUnderAnalysis
    functions: Dict[str, FunctionInfo] = field(default_factory=dict)
    classes: Dict[str, ClassInfo] = field(default_factory=dict)


class ProjectIndex:
    """Symbol table across every parsed module."""

    def __init__(self) -> None:
        self.modules: Dict[str, ModuleSymbols] = {}
        self.functions: Dict[str, FunctionInfo] = {}
        self.classes: Dict[str, ClassInfo] = {}


@dataclass
class ProjectContext:
    """Second-pass product handed to checkers via ``ScopeContext``."""

    config: LintConfig
    index: ProjectIndex
    modules: List[ModuleUnderAnalysis]


# ---------------------------------------------------------------------------
# Symbol extraction
# ---------------------------------------------------------------------------

def _prefill_aliases(module: ModuleUnderAnalysis) -> None:
    """Record every import up front so dotted-name resolution works
    before (and independently of) the per-file checker walk."""
    for node in ast.walk(module.tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            module.record_import(node)


def _extract_symbols(symbols: ModuleSymbols) -> None:
    def visit_body(body: Sequence[ast.stmt], class_stack: List[str],
                   func_stack: List[str]) -> None:
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qual = ".".join(class_stack + func_stack + [node.name])
                info = FunctionInfo(
                    fid=f"{symbols.name}::{qual}",
                    module=symbols.name,
                    qualname=qual,
                    name=node.name,
                    lineno=node.lineno,
                )
                symbols.functions[qual] = info
                visit_body(node.body, class_stack,
                           func_stack + [node.name])
            elif isinstance(node, ast.ClassDef):
                qual = ".".join(class_stack + [node.name])
                cls = ClassInfo(
                    fid=f"{symbols.name}::{qual}",
                    module=symbols.name,
                    name=qual,
                    lineno=node.lineno,
                )
                symbols.classes[qual] = cls
                visit_body(node.body, class_stack + [node.name], [])

    visit_body(symbols.module.tree.body, [], [])


def build_project(modules: Sequence[ModuleUnderAnalysis],
                  config: LintConfig) -> ProjectContext:
    """Index every module's function and class definitions."""
    index = ProjectIndex()
    for module in modules:
        _prefill_aliases(module)
        symbols = ModuleSymbols(
            name=module.name, path=str(module.path),
            display_path=module.display_path, module=module)
        _extract_symbols(symbols)
        # Last-write-wins on duplicate module names (mirrored fixture
        # trees): deterministic because collect() sorts paths.
        index.modules[module.name] = symbols
    for symbols in index.modules.values():
        for qual, func in symbols.functions.items():
            index.functions[func.fid] = func
        for qual, cls in symbols.classes.items():
            index.classes[cls.fid] = cls
    return ProjectContext(config=config, index=index,
                          modules=list(modules))
