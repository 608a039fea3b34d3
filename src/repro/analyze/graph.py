"""Project-wide symbol table and conservative call graph.

The per-file engine (:mod:`repro.analyze.engine`) parses each module
once; this module performs the *second pass* over those same ASTs to
build what interprocedural checkers need:

* a :class:`ProjectIndex` — module-qualified function defs, class
  surfaces (own methods, resolved base classes, inferred attribute
  types), and the import edges between project modules;
* a :class:`CallGraph` — provable call edges only.  An edge is added
  when the callee can be named without guessing: direct calls to
  module-level or imported project functions, ``self``/``cls`` method
  calls (resolved through base classes), ``ClassName(...)``
  constructors, calls through a local variable whose type was pinned by
  ``v = ClassName(...)``, calls through an instance attribute pinned by
  ``self.x = ClassName(...)`` in the owning class, constructor chains
  ``ClassName(...).method()``, and nested/local functions.

Unresolvable attribute calls (``obj.method()`` where ``obj``'s type is
unknown) are deliberately **not** followed: class-hierarchy-analysis
style name matching would flood the A-rules with false positives.  The
graph is therefore an under-approximation — checkers built on it can
miss violations routed through dynamic dispatch, but everything they do
report is a real path.  That trade-off is documented in DESIGN.md.

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
    """One class definition and its resolved surface."""

    fid: str                    # "module::QualName"
    module: str
    name: str                   # qualname within the module
    lineno: int
    node: ast.ClassDef
    raw_bases: List[str] = field(default_factory=list)
    bases: List[str] = field(default_factory=list)      # resolved fids
    methods: Dict[str, FunctionInfo] = field(default_factory=dict)
    #: ``self.<attr> = ClassName(...)`` assignments seen in any method:
    #: attr -> dotted constructor name (phase 1) / class fid (phase 2).
    raw_attr_types: Dict[str, str] = field(default_factory=dict)
    attr_types: Dict[str, str] = field(default_factory=dict)


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


@dataclass(frozen=True)
class CallEdge:
    caller: str                 # fid
    callee: str                 # fid
    lineno: int
    via: str                    # how the edge was proven


class CallGraph:
    """Provable-edges-only call graph over project functions."""

    def __init__(self) -> None:
        self.edges: Dict[str, List[CallEdge]] = {}

    def add(self, edge: CallEdge) -> None:
        self.edges.setdefault(edge.caller, []).append(edge)

    def callees(self, fid: str) -> List[CallEdge]:
        return self.edges.get(fid, [])

    def __len__(self) -> int:
        return sum(len(v) for v in self.edges.values())


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

    def resolve_class(self, ref: str) -> Optional[ClassInfo]:
        """Look up a class by ``module::QualName`` reference."""
        return self.classes.get(ref)

    def lookup_method(self, class_fid: str, name: str,
                      _seen: Optional[Set[str]] = None
                      ) -> Optional[FunctionInfo]:
        """Find ``name`` on a class or (depth-first) its project bases."""
        seen = _seen if _seen is not None else set()
        if class_fid in seen:
            return None
        seen.add(class_fid)
        info = self.classes.get(class_fid)
        if info is None:
            return None
        if name in info.methods:
            return info.methods[name]
        for base in info.bases:
            found = self.lookup_method(base, name, seen)
            if found is not None:
                return found
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
    graph: CallGraph
    modules: List[ModuleUnderAnalysis]


# ---------------------------------------------------------------------------
# Phase 1: symbol extraction
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
    module = symbols.module

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
                if in_class:
                    cls = symbols.classes[".".join(class_stack)]
                    cls.methods[node.name] = info
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
                    raw_bases=[d for d in
                               (module.dotted_name(b) for b in node.bases)
                               if d is not None],
                )
                symbols.classes[qual] = cls
                visit_body(node.body, class_stack + [node.name], [])

    visit_body(module.tree.body, [], [])

    # ``self.x = ClassName(...)`` inside any method pins the attribute's
    # type for the whole class (first assignment wins; conflicting
    # re-assignments would make the pin unsound, so later ones are
    # ignored only if they agree is not checked — lint-grade inference).
    for cls in symbols.classes.values():
        for method in cls.methods.values():
            for node in ast.walk(method.node):
                if not isinstance(node, ast.Assign) or \
                        len(node.targets) != 1:
                    continue
                target = node.targets[0]
                if not (isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"):
                    continue
                if not isinstance(node.value, ast.Call):
                    continue
                dotted = module.dotted_name(node.value.func)
                if dotted is not None:
                    cls.raw_attr_types.setdefault(target.attr, dotted)


# ---------------------------------------------------------------------------
# Phase 2: resolution + call edges
# ---------------------------------------------------------------------------

class _EdgeExtractor:
    """Walks one function body and emits provable call edges."""

    def __init__(self, index: ProjectIndex, graph: CallGraph,
                 symbols: ModuleSymbols) -> None:
        self.index = index
        self.graph = graph
        self.symbols = symbols
        self.module = symbols.module

    def extract(self, info: FunctionInfo) -> None:
        local_types: Dict[str, str] = {}
        for stmt in info.node.body:
            self._walk(stmt, info, local_types)

    # -- traversal -----------------------------------------------------
    def _walk(self, node: ast.AST, info: FunctionInfo,
              local_types: Dict[str, str]) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            return  # nested scopes are their own FunctionInfo
        if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                and isinstance(node.targets[0], ast.Name) \
                and isinstance(node.value, ast.Call):
            cls_fid = self._class_of_call(node.value)
            if cls_fid is not None:
                local_types[node.targets[0].id] = cls_fid
            else:
                local_types.pop(node.targets[0].id, None)
        if isinstance(node, ast.Call):
            self._handle_call(node, info, local_types)
        for child in ast.iter_child_nodes(node):
            self._walk(child, info, local_types)

    # -- resolution helpers --------------------------------------------
    def _class_of_call(self, call: ast.Call) -> Optional[str]:
        dotted = self.module.dotted_name(call.func)
        if dotted is None:
            return None
        resolved = self.index.resolve_dotted(self.symbols.name, dotted)
        if resolved and resolved[0] == "class":
            return resolved[1]
        return None

    def _add(self, info: FunctionInfo, callee: Optional[FunctionInfo],
             node: ast.Call, via: str) -> None:
        if callee is not None:
            self.graph.add(CallEdge(caller=info.fid, callee=callee.fid,
                                    lineno=node.lineno, via=via))

    def _handle_call(self, node: ast.Call, info: FunctionInfo,
                     local_types: Dict[str, str]) -> None:
        func = node.func
        # Nested/local functions: innermost enclosing scope wins.
        if isinstance(func, ast.Name):
            prefix_parts = info.qualname.split(".")
            for cut in range(len(prefix_parts), 0, -1):
                qual = ".".join(prefix_parts[:cut] + [func.id])
                nested = self.symbols.functions.get(qual)
                if nested is not None:
                    self._add(info, nested, node, "nested")
                    return
        dotted = self.module.dotted_name(func)
        if dotted is not None:
            resolved = self.index.resolve_dotted(self.symbols.name, dotted)
            if resolved is not None:
                kind, fid = resolved
                if kind == "func":
                    self._add(info, self.index.functions.get(fid),
                              node, "direct")
                    return
                # Constructor call: edge into __init__ when defined.
                init = self.index.lookup_method(fid, "__init__")
                self._add(info, init, node, "constructor")
                return
        if not isinstance(func, ast.Attribute):
            return
        method = func.attr
        base = func.value
        owner_fid: Optional[str] = None
        via = ""
        if isinstance(base, ast.Name):
            if base.id in ("self", "cls") and info.owner is not None:
                owner_fid, via = info.owner, "self"
            elif base.id in local_types:
                owner_fid, via = local_types[base.id], "local-var"
        elif isinstance(base, ast.Attribute) \
                and isinstance(base.value, ast.Name) \
                and base.value.id == "self" and info.owner is not None:
            owner_cls = self.index.classes.get(info.owner)
            if owner_cls is not None:
                owner_fid = owner_cls.attr_types.get(base.attr)
                via = "attr"
        elif isinstance(base, ast.Call):
            owner_fid = self._class_of_call(base)
            via = "chain"
            if owner_fid is not None:
                init = self.index.lookup_method(owner_fid, "__init__")
                self._add(info, init, node, "constructor")
        if owner_fid is not None:
            callee = self.index.lookup_method(owner_fid, method)
            self._add(info, callee, node, via)


def build_project(modules: Sequence[ModuleUnderAnalysis],
                  config: LintConfig) -> ProjectContext:
    """Run both passes: extract symbols, then resolve + build edges."""
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
    # Resolve base classes and attribute types now that every class is
    # registered.
    for symbols in index.modules.values():
        for cls in symbols.classes.values():
            cls.bases = []
            for raw in cls.raw_bases:
                resolved = index.resolve_dotted(symbols.name, raw)
                if resolved and resolved[0] == "class":
                    cls.bases.append(resolved[1])
            cls.attr_types = {}
            for attr, raw in cls.raw_attr_types.items():
                resolved = index.resolve_dotted(symbols.name, raw)
                if resolved and resolved[0] == "class":
                    cls.attr_types[attr] = resolved[1]
    graph = CallGraph()
    for symbols in index.modules.values():
        extractor = _EdgeExtractor(index, graph, symbols)
        for func in symbols.functions.values():
            extractor.extract(func)
    return ProjectContext(config=config, index=index, graph=graph,
                          modules=list(modules))
