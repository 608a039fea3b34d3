"""Project-wide symbol table for interprocedural checks.

The per-file engine (:mod:`repro.analyze.engine`) parses each module
once; this module performs the *second pass* over those same ASTs to
build a :class:`ProjectIndex`: module-qualified function defs, class
definitions, and the import edges between project modules.  The
counter-discipline checks (C002, C003) read it in ``finish_project``,
and ``repro lint --changed`` widens its focus through
:meth:`ProjectIndex.reverse_importers`.

Identifiers use the ``module::qualname`` form already used by the
policy config (``counter-mutators``, ``engine-functions``).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

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
    node: ast.AST               # FunctionDef | AsyncFunctionDef
    owner: Optional[str] = None  # owning class fid, if a method


@dataclass
class ClassInfo:
    """One class definition."""

    fid: str                    # "module::QualName"
    module: str
    name: str                   # qualname within the module
    lineno: int
    node: ast.ClassDef


@dataclass
class ModuleSymbols:
    """Everything the index knows about one project module."""

    name: str
    path: str
    display_path: str
    module: ModuleUnderAnalysis
    functions: Dict[str, FunctionInfo] = field(default_factory=dict)
    classes: Dict[str, ClassInfo] = field(default_factory=dict)
    #: Project modules this module imports (exact names, unfiltered —
    #: callers intersect with the index).
    imports: Set[str] = field(default_factory=set)


class ProjectIndex:
    """Symbol table across every parsed module."""

    def __init__(self) -> None:
        self.modules: Dict[str, ModuleSymbols] = {}
        self.functions: Dict[str, FunctionInfo] = {}
        self.classes: Dict[str, ClassInfo] = {}

    # -- resolution ----------------------------------------------------
    def resolve_dotted(self, module_name: str,
                       dotted: str) -> Optional[Tuple[str, str]]:
        """Resolve an alias-expanded dotted name to ``(kind, fid)``.

        ``kind`` is ``"class"`` or ``"func"``.  Local names win, then
        the longest known-module prefix; unknown names return ``None``.
        """
        symbols = self.modules.get(module_name)
        if symbols is not None:
            if dotted in symbols.classes:
                return ("class", f"{module_name}::{dotted}")
            if dotted in symbols.functions:
                return ("func", f"{module_name}::{dotted}")
        parts = dotted.split(".")
        for cut in range(len(parts) - 1, 0, -1):
            prefix = ".".join(parts[:cut])
            target = self.modules.get(prefix)
            if target is None:
                continue
            rest = ".".join(parts[cut:])
            if rest in target.classes:
                return ("class", f"{prefix}::{rest}")
            if rest in target.functions:
                return ("func", f"{prefix}::{rest}")
            return None
        return None

    # -- incremental-lint support --------------------------------------
    def reverse_importers(self, seeds: Iterable[str]) -> Set[str]:
        """Transitive closure of modules importing any seed module."""
        importers: Dict[str, Set[str]] = {}
        for name, symbols in self.modules.items():
            for imported in symbols.imports:
                if imported in self.modules:
                    importers.setdefault(imported, set()).add(name)
        closure: Set[str] = set()
        queue = [s for s in seeds if s in self.modules]
        while queue:
            current = queue.pop()
            if current in closure:
                continue
            closure.add(current)
            queue.extend(importers.get(current, ()))
        return closure


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


def _collect_imports(module: ModuleUnderAnalysis) -> Set[str]:
    imports: Set[str] = set()
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imports.add(alias.name)
        elif isinstance(node, ast.ImportFrom):
            base = module.resolve_import_from(node)
            if base:
                imports.add(base)
                for alias in node.names:
                    # "from repro import machine" imports a module too.
                    imports.add(f"{base}.{alias.name}")
    return imports


def _extract_symbols(symbols: ModuleSymbols) -> None:
    def visit_body(body: Sequence[ast.stmt], class_stack: List[str],
                   func_stack: List[str]) -> None:
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qual = ".".join(class_stack + func_stack + [node.name])
                in_class = bool(class_stack) and not func_stack
                owner = f"{symbols.name}::{'.'.join(class_stack)}" \
                    if in_class else None
                info = FunctionInfo(
                    fid=f"{symbols.name}::{qual}",
                    module=symbols.name,
                    qualname=qual,
                    name=node.name,
                    lineno=node.lineno,
                    node=node,
                    owner=owner,
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
                    node=node,
                )
                symbols.classes[qual] = cls
                visit_body(node.body, class_stack + [node.name], [])

    visit_body(symbols.module.tree.body, [], [])


def build_project(modules: Sequence[ModuleUnderAnalysis],
                  config: LintConfig) -> ProjectContext:
    """Index every module's symbols and imports."""
    index = ProjectIndex()
    for module in modules:
        _prefill_aliases(module)
        symbols = ModuleSymbols(
            name=module.name, path=str(module.path),
            display_path=module.display_path, module=module,
            imports=_collect_imports(module),
        )
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
