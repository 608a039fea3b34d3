"""The second-pass project index (repro.analyze.graph).

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


def make_module(relpath: str, source: str) -> ModuleUnderAnalysis:
    tree = ast.parse(textwrap.dedent(source))
    return ModuleUnderAnalysis(Path(relpath), tree, relpath)


def make_project():
    modules = [
        make_module("src/repro/kernel/alpha.py", ALPHA),
        make_module("src/repro/kernel/beta.py", BETA),
    ]
    return build_project(modules, LintConfig())


class TestProjectIndex:
    def test_functions_are_module_qualified(self):
        project = make_project()
        info = project.index.functions["repro.kernel.alpha::Kernel.run"]
        assert info.module == "repro.kernel.alpha"
        assert info.qualname == "Kernel.run"
        assert info.name == "run"

    def test_nested_function_is_indexed(self):
        project = make_project()
        inner = project.index.functions[
            "repro.kernel.alpha::Kernel.run.inner"]
        assert inner.qualname == "Kernel.run.inner"
        assert "repro.kernel.alpha::Kernel" in project.index.classes
