"""Export lists: every listed name resolves, and each module lists only its own names."""

import ast
import importlib
import inspect
import pathlib
import pkgutil
import re

import pytest

import fracham

SUBMODULES = sorted(
    name for _, name, _ in pkgutil.iter_modules(fracham.__path__) if name != "__main__"
)


def _top_level_definitions(module) -> set[str]:
    """Names a module binds by ``def``, ``class`` or assignment at top level."""
    names = set()
    for node in ast.parse(inspect.getsource(module)).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


def test_package_exports_resolve():
    missing = [name for name in fracham.__all__ if not hasattr(fracham, name)]
    assert missing == []
    assert len(set(fracham.__all__)) == len(fracham.__all__)


def test_package_exports_are_documented():
    """The package namespace is the README's "Library use" section, name for name."""
    readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library use", 1)[1].split("\n## ", 1)[0]
    assert [n for n in fracham.__all__ if not re.search(rf"\b{n}\b", section)] == []


@pytest.mark.parametrize("name", SUBMODULES)
def test_submodule_exports_are_its_own(name):
    module = importlib.import_module(f"fracham.{name}")
    exported = getattr(module, "__all__", [])
    assert [n for n in exported if not hasattr(module, n)] == []
    assert sorted(set(exported) - _top_level_definitions(module)) == []
