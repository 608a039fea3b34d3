"""The second-pass project index and call graph (repro.analyze.graph).

Modules are built from inline sources on synthetic ``repro/...`` paths
(``module_name_for`` anchors at the last ``repro`` component), so each
test states its whole program in one place.
"""

import ast
import textwrap
from pathlib import Path

from repro.analyze import LintConfig
from repro.analyze.engine import ModuleUnderAnalysis
from repro.analyze.graph import build_project

ALPHA = """\
    from repro.kernel.beta import Widget

    class Base:
        def ping(self):
            return 1

    class Kernel(Base):
        def __init__(self):
            self.helper = Widget()

        def run(self):
            self.step()
            self.ping()
            local = Widget()
            local.spin()
            self.helper.spin()
            Widget().spin()
            util()

            def inner():
                util()

            inner()

        def step(self):
            pass

    def util():
        pass
    """

BETA = """\
    class Widget:
        def __init__(self):
            self.turns = 0

        def spin(self):
            self.turns += 1
    """

GAMMA = """\
    import repro.kernel.alpha
    """

DELTA = """\
    def standalone():
        pass
    """


def make_module(relpath: str, source: str) -> ModuleUnderAnalysis:
    tree = ast.parse(textwrap.dedent(source))
    return ModuleUnderAnalysis(Path(relpath), tree, relpath)


def make_project():
    modules = [
        make_module("src/repro/kernel/alpha.py", ALPHA),
        make_module("src/repro/kernel/beta.py", BETA),
        make_module("src/repro/harness/gamma.py", GAMMA),
        make_module("src/repro/harness/delta.py", DELTA),
    ]
    return build_project(modules, LintConfig())


def edges_from(project, fid):
    return {(e.callee, e.via) for e in project.graph.callees(fid)}


class TestProjectIndex:
    def test_functions_are_module_qualified(self):
        project = make_project()
        info = project.index.functions["repro.kernel.alpha::Kernel.run"]
        assert info.module == "repro.kernel.alpha"
        assert info.qualname == "Kernel.run"
        assert info.owner == "repro.kernel.alpha::Kernel"
        assert not info.is_async

    def test_nested_function_is_indexed(self):
        project = make_project()
        inner = project.index.functions[
            "repro.kernel.alpha::Kernel.run.inner"]
        assert inner.owner is None  # not a method

    def test_resolve_dotted_prefers_local_names(self):
        project = make_project()
        assert project.index.resolve_dotted(
            "repro.kernel.alpha", "util") \
            == ("func", "repro.kernel.alpha::util")
        assert project.index.resolve_dotted(
            "repro.kernel.alpha", "Kernel") \
            == ("class", "repro.kernel.alpha::Kernel")

    def test_resolve_dotted_walks_module_prefixes(self):
        project = make_project()
        assert project.index.resolve_dotted(
            "repro.harness.gamma", "repro.kernel.beta.Widget") \
            == ("class", "repro.kernel.beta::Widget")

    def test_resolve_dotted_unknown_is_none(self):
        project = make_project()
        assert project.index.resolve_dotted(
            "repro.kernel.alpha", "numpy.zeros") is None
        assert project.index.resolve_dotted(
            "repro.kernel.alpha", "ghost") is None

    def test_lookup_method_searches_project_bases(self):
        project = make_project()
        found = project.index.lookup_method(
            "repro.kernel.alpha::Kernel", "ping")
        assert found is not None
        assert found.fid == "repro.kernel.alpha::Base.ping"
        assert project.index.lookup_method(
            "repro.kernel.alpha::Kernel", "absent") is None

    def test_attr_types_pinned_from_init(self):
        project = make_project()
        kernel = project.index.classes["repro.kernel.alpha::Kernel"]
        assert kernel.attr_types == {
            "helper": "repro.kernel.beta::Widget"}


class TestCallGraphEdges:
    def test_every_provable_edge_kind(self):
        project = make_project()
        run = edges_from(project, "repro.kernel.alpha::Kernel.run")
        assert ("repro.kernel.alpha::Kernel.step", "self") in run
        assert ("repro.kernel.alpha::Base.ping", "self") in run
        assert ("repro.kernel.beta::Widget.__init__",
                "constructor") in run
        assert ("repro.kernel.beta::Widget.spin", "local-var") in run
        assert ("repro.kernel.beta::Widget.spin", "attr") in run
        assert ("repro.kernel.beta::Widget.spin", "chain") in run
        assert ("repro.kernel.alpha::util", "direct") in run
        assert ("repro.kernel.alpha::Kernel.run.inner", "nested") in run

    def test_constructor_edge_from_init(self):
        project = make_project()
        init = edges_from(project, "repro.kernel.alpha::Kernel.__init__")
        assert ("repro.kernel.beta::Widget.__init__",
                "constructor") in init

    def test_no_edges_invented_for_unknown_receivers(self):
        project = make_project()
        callees = {e.callee for edges in project.graph.edges.values()
                   for e in edges}
        assert all(c.startswith("repro.") for c in callees)
        assert project.graph.callees("repro.harness.delta::standalone") \
            == []


class TestReverseImporters:
    def test_closure_follows_import_chain(self):
        project = make_project()
        closure = project.index.reverse_importers(["repro.kernel.beta"])
        assert closure == {"repro.kernel.beta", "repro.kernel.alpha",
                           "repro.harness.gamma"}

    def test_leaf_module_closes_over_itself(self):
        project = make_project()
        assert project.index.reverse_importers(["repro.harness.delta"]) \
            == {"repro.harness.delta"}

    def test_unknown_seed_is_ignored(self):
        project = make_project()
        assert project.index.reverse_importers(["repro.nowhere"]) == set()
