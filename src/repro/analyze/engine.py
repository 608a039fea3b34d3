"""The AST-walking analysis engine behind ``repro lint``.

One parse per file: the :class:`Analyzer` parses each module once and
walks the tree once, dispatching every node to each registered checker
that declared interest in its type.  Checkers therefore share nodes —
adding a checker costs its visit functions, not another parse or walk.
Every run walks every collected file; :meth:`Analyzer.run` then hands
the whole-program index (:mod:`repro.analyze.graph`) to each checker's
``finish_project`` once.

The walker maintains the scope context checkers keep needing: the
enclosing class/function stack (for qualified names), the module's
import alias table (so ``rng.random`` and ``random.random`` resolve
differently), whether the walk is inside an ``if TYPE_CHECKING:`` guard,
and per-function ``self``-alias tracking (``stats = self.stats`` makes
``stats.hits += 1`` a self-owned mutation).

Findings carry a *stable key* (rule + module + a checker-chosen token,
no line numbers) so the baseline file survives unrelated edits.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import (TYPE_CHECKING, Callable, Dict, Iterable, List, Optional,
                    Sequence, Tuple)

from repro.analyze.config import LintConfig

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.analyze.graph import ProjectContext

#: Rule id for files the engine cannot parse.
PARSE_ERROR_RULE = "E000"


@dataclass(frozen=True)
class Finding:
    """One reported violation."""

    rule: str
    path: str
    line: int
    col: int
    message: str
    #: Stable suppression key: ``rule::module::token`` (no line numbers,
    #: so baselines survive unrelated edits to the same file).
    key: str
    #: Qualified name of the enclosing scope ("Kernel.mmap_bind", or
    #: "<module>" at top level).
    symbol: str = "<module>"

    def to_dict(self) -> Dict[str, object]:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "key": self.key,
            "symbol": self.symbol,
        }

    def render(self) -> str:
        return (f"{self.path}:{self.line}:{self.col}: "
                f"{self.rule} [{self.symbol}] {self.message}")


def module_name_for(path: Path) -> str:
    """Infer the dotted module name from a file path.

    The last ``repro`` component anchors the package root, so both
    ``src/repro/machine/numa.py`` and a test fixture at
    ``fixtures/planted/repro/machine/bad.py`` resolve to
    ``repro.machine.*`` — which is what lets fixtures exercise
    layer-sensitive rules by mirroring the real tree.  Paths without a
    ``repro`` component anchor at ``tests``/``benchmarks`` instead
    (those trees are linted for D-rules), else fall back to the stem.
    """
    parts = list(path.parts)
    parts[-1] = path.stem
    if parts[-1] == "__init__":
        parts.pop()
    anchor = -1
    for index, part in enumerate(parts):
        if part == "repro":
            anchor = index
    if anchor < 0:
        for index, part in enumerate(parts):
            if part in ("tests", "benchmarks"):
                anchor = index
    if anchor < 0:
        return parts[-1] if parts else "<unknown>"
    return ".".join(parts[anchor:])


class ModuleUnderAnalysis:
    """One parsed file plus the name/alias context checkers query."""

    def __init__(self, path: Path, tree: ast.Module,
                 display_path: str) -> None:
        self.path = path
        self.display_path = display_path
        self.tree = tree
        self.name = module_name_for(path)
        self.package = self.name.rsplit(".", 1)[0] if "." in self.name \
            else self.name
        #: alias -> dotted target ("np" -> "numpy",
        #: "perf_counter" -> "time.perf_counter").  Function-local
        #: imports are folded in too; collisions are rare enough that
        #: last-write-wins is acceptable for lint purposes.
        self.aliases: Dict[str, str] = {}

    def record_import(self, node: ast.AST) -> None:
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".", 1)[0]
                target = alias.name if alias.asname else \
                    alias.name.split(".", 1)[0]
                self.aliases[name] = target
        elif isinstance(node, ast.ImportFrom):
            base = self.resolve_import_from(node)
            for alias in node.names:
                self.aliases[alias.asname or alias.name] = \
                    f"{base}.{alias.name}" if base else alias.name

    def resolve_import_from(self, node: ast.ImportFrom) -> str:
        """Absolute dotted module an ``ImportFrom`` pulls from."""
        if not node.level:
            return node.module or ""
        parts = self.name.split(".")
        # level=1 strips the module name itself (we store package-less
        # names for __init__), deeper levels walk up packages.
        base = parts[:len(parts) - node.level] if len(parts) >= node.level \
            else []
        if node.module:
            base.append(node.module)
        return ".".join(base)

    def dotted_name(self, node: ast.AST) -> Optional[str]:
        """Resolve an expression to a dotted name through the alias map.

        ``Name('random')`` -> "random" (or whatever it aliases);
        ``Attribute(Name('np'), 'random')`` -> "numpy.random".  Returns
        ``None`` for expressions that are not plain dotted paths.
        """
        parts: List[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        root = self.aliases.get(node.id, node.id)
        parts.append(root)
        return ".".join(reversed(parts))


@dataclass
class ScopeContext:
    """Walk-time scope state, shared read-only with checkers."""

    module: ModuleUnderAnalysis
    config: LintConfig
    class_stack: List[str] = field(default_factory=list)
    func_stack: List[str] = field(default_factory=list)
    #: Names aliasing ``self`` or ``self.<attr>`` in the innermost
    #: method, each mapped to its attribute depth (0 for ``self``).
    self_aliases: Dict[str, int] = field(default_factory=dict)
    type_checking_depth: int = 0
    #: True while the innermost function's first parameter is ``self``.
    in_method_like: bool = False

    @property
    def current_class(self) -> Optional[str]:
        return self.class_stack[-1] if self.class_stack else None

    @property
    def in_function(self) -> bool:
        return bool(self.func_stack)

    @property
    def in_type_checking(self) -> bool:
        return self.type_checking_depth > 0

    def qualname(self) -> str:
        parts = self.class_stack + self.func_stack
        return ".".join(parts) if parts else "<module>"

    def self_depth(self, node: ast.AST) -> Optional[int]:
        """Attribute depth below ``self`` for a dotted expression.

        ``self`` -> 0, ``self.stats`` -> 1, an alias created by
        ``stats = self.stats`` -> 1, anything else -> ``None``.
        """
        depth = 0
        while isinstance(node, ast.Attribute):
            depth += 1
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        if node.id == "self" and self.in_method_like:
            return depth
        base = self.self_aliases.get(node.id)
        if base is None:
            return None
        return base + depth

    def finding(self, rule: str, node: ast.AST, message: str,
                token: str) -> Finding:
        return Finding(
            rule=rule,
            path=self.module.display_path,
            line=getattr(node, "lineno", 0),
            col=getattr(node, "col_offset", -1) + 1,
            message=message,
            key=f"{rule}::{self.module.name}::{token}",
            symbol=self.qualname(),
        )


class Checker:
    """Base class: subclasses implement ``visit_<NodeType>`` methods.

    The engine discovers interest by reflection — a checker that
    defines ``visit_Call`` sees every ``ast.Call`` in every module.
    Visit methods and :meth:`finish_project` return findings (or
    ``None``).
    """

    #: Rule ids this checker can emit, mapped to one-line descriptions
    #: (the CLI's ``--explain`` output and the docs table source).
    rules: Dict[str, str] = {}
    #: Short name used by ``--select``/``--ignore`` alongside rule ids.
    name = "checker"

    def finish_project(self, project: "ProjectContext"
                       ) -> Optional[List[Finding]]:
        """Interprocedural phase: runs once after every file was walked.

        Only invoked by :meth:`Analyzer.run` (which builds the project
        context); single-file ``run_file`` never reaches it.
        """
        return None


class _Walker:
    """Single shared walk with scope maintenance and dispatch tables."""

    def __init__(self, checkers: Sequence[Checker],
                 config: LintConfig) -> None:
        self.checkers = checkers
        self.config = config
        # node type name -> [(checker, bound visit method)]
        self.dispatch: Dict[str, List[Callable[[ast.AST, ScopeContext],
                                               Optional[List[Finding]]]]] = {}
        for checker in checkers:
            for attr in dir(checker):
                if attr.startswith("visit_"):
                    self.dispatch.setdefault(attr[6:], []).append(
                        getattr(checker, attr))

    def run(self, module: ModuleUnderAnalysis) -> List[Finding]:
        ctx = ScopeContext(module=module, config=self.config)
        findings: List[Finding] = []
        self._walk(module.tree, ctx, findings)
        return findings

    def _dispatch(self, node: ast.AST, ctx: ScopeContext,
                  findings: List[Finding]) -> None:
        handlers = self.dispatch.get(type(node).__name__)
        if handlers:
            for handler in handlers:
                found = handler(node, ctx)
                if found:
                    findings.extend(found)

    def _walk(self, node: ast.AST, ctx: ScopeContext,
              findings: List[Finding]) -> None:
        for child in ast.iter_child_nodes(node):
            kind = type(child)
            if kind in (ast.Import, ast.ImportFrom):
                ctx.module.record_import(child)
                self._dispatch(child, ctx, findings)
            elif kind in (ast.FunctionDef, ast.AsyncFunctionDef):
                self._dispatch(child, ctx, findings)
                saved_aliases = ctx.self_aliases
                saved_method = ctx.in_method_like
                ctx.self_aliases = {}
                args = child.args.posonlyargs + child.args.args
                ctx.in_method_like = bool(args) and args[0].arg == "self"
                ctx.func_stack.append(child.name)
                self._walk(child, ctx, findings)
                ctx.func_stack.pop()
                ctx.self_aliases = saved_aliases
                ctx.in_method_like = saved_method
            elif kind is ast.ClassDef:
                self._dispatch(child, ctx, findings)
                # Methods of a nested class belong to that class, not
                # the enclosing function scope.
                saved_funcs, ctx.func_stack = ctx.func_stack, []
                ctx.class_stack.append(child.name)
                self._walk(child, ctx, findings)
                ctx.class_stack.pop()
                ctx.func_stack = saved_funcs
            elif kind is ast.If and _is_type_checking_test(child.test):
                self._dispatch(child, ctx, findings)
                ctx.type_checking_depth += 1
                for stmt in child.body:
                    if isinstance(stmt, (ast.Import, ast.ImportFrom)):
                        ctx.module.record_import(stmt)
                    self._walk_stmt(stmt, ctx, findings)
                ctx.type_checking_depth -= 1
                for stmt in child.orelse:
                    self._walk_stmt(stmt, ctx, findings)
            else:
                if kind is ast.Assign:
                    self._note_self_alias(child, ctx)
                self._dispatch(child, ctx, findings)
                self._walk(child, ctx, findings)

    def _walk_stmt(self, stmt: ast.stmt, ctx: ScopeContext,
                   findings: List[Finding]) -> None:
        self._dispatch(stmt, ctx, findings)
        self._walk(stmt, ctx, findings)

    @staticmethod
    def _note_self_alias(node: ast.Assign, ctx: ScopeContext) -> None:
        if not ctx.in_method_like or len(node.targets) != 1:
            return
        target = node.targets[0]
        if not isinstance(target, ast.Name):
            return
        depth = ctx.self_depth(node.value)
        if depth is not None:
            ctx.self_aliases[target.id] = depth
        else:
            ctx.self_aliases.pop(target.id, None)


def _is_type_checking_test(test: ast.AST) -> bool:
    if isinstance(test, ast.Name):
        return test.id == "TYPE_CHECKING"
    if isinstance(test, ast.Attribute):
        return test.attr == "TYPE_CHECKING"
    return False


@dataclass
class AnalysisReport:
    """Everything one ``Analyzer.run`` produced."""

    findings: List[Finding]
    files_scanned: int
    #: Module names parsed into the project index this run — the scope
    #: within which baseline entries can be judged stale.
    scanned_modules: List[str] = field(default_factory=list)

    def sorted(self) -> List[Finding]:
        return sorted(self.findings,
                      key=lambda f: (f.path, f.line, f.rule, f.key))


class Analyzer:
    """Collects files, parses each once, and runs the shared walk."""

    def __init__(self, checkers: Sequence[Checker],
                 config: Optional[LintConfig] = None) -> None:
        self.config = config or LintConfig()
        self.checkers = list(checkers)
        self._walker = _Walker(self.checkers, self.config)

    # ------------------------------------------------------------------
    # File collection
    # ------------------------------------------------------------------
    @staticmethod
    def collect(paths: Iterable[Path]) -> List[Path]:
        files: List[Path] = []
        for path in paths:
            if path.is_dir():
                files.extend(sorted(p for p in path.rglob("*.py")
                                    if "__pycache__" not in p.parts))
            elif path.suffix == ".py":
                files.append(path)
        # De-duplicate while preserving a deterministic order.
        seen: Dict[Path, None] = {}
        for file in files:
            seen.setdefault(file, None)
        return list(seen)

    # ------------------------------------------------------------------
    # Analysis
    # ------------------------------------------------------------------
    def run(self, paths: Iterable[Path]) -> AnalysisReport:
        """Analyze ``paths``: walk every file, then the project pass."""
        findings: List[Finding] = []
        files = self.collect(paths)
        modules: List[ModuleUnderAnalysis] = []
        for file in files:
            module, error = self._parse(file)
            if error is not None:
                findings.append(error)
            if module is not None:
                modules.append(module)
        # Imported lazily: graph.py imports from this module.
        from repro.analyze.graph import build_project
        project = build_project(modules, self.config)
        for module in modules:
            findings.extend(self._walker.run(module))
        for checker in self.checkers:
            found = checker.finish_project(project)
            if found:
                findings.extend(found)
        return AnalysisReport(
            findings=findings, files_scanned=len(files),
            scanned_modules=[m.name for m in modules])

    def run_file(self, path: Path) -> List[Finding]:
        """Single-file mode: per-file checkers only, no project pass."""
        module, error = self._parse(path)
        if error is not None:
            return [error]
        assert module is not None
        return self._walker.run(module)

    def _parse(self, path: Path) -> Tuple[Optional[ModuleUnderAnalysis],
                                          Optional[Finding]]:
        display = _display_path(path)
        try:
            source = path.read_text(encoding="utf-8")
            tree = ast.parse(source, filename=str(path))
        except (OSError, SyntaxError, ValueError) as exc:
            line = getattr(exc, "lineno", 0) or 0
            return None, Finding(
                rule=PARSE_ERROR_RULE, path=display, line=line, col=0,
                message=f"cannot analyze file: {exc}",
                key=f"{PARSE_ERROR_RULE}::{module_name_for(path)}::parse",
            )
        return ModuleUnderAnalysis(path, tree, display), None


def _display_path(path: Path) -> str:
    """Repo-relative path when possible, else the path as given."""
    try:
        return str(path.relative_to(Path.cwd()))
    except ValueError:
        return str(path)
