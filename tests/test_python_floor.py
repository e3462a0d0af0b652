"""Every source file parses under the oldest Python that ``pyproject.toml`` declares.

The suite itself runs on a newer interpreter, so syntax added after the
floor would otherwise go unnoticed.
"""

import ast
import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
FILES = sorted([*(ROOT / "src" / "fracham").rglob("*.py"), *(ROOT / "tests").rglob("*.py")])


def _declared_floor() -> tuple[int, int]:
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    match = re.search(r'^requires-python\s*=\s*">=(\d+)\.(\d+)"', text, re.MULTILINE)
    assert match, "pyproject.toml declares no requires-python floor"
    return int(match.group(1)), int(match.group(2))


@pytest.mark.parametrize("path", FILES, ids=lambda path: path.relative_to(ROOT).as_posix())
def test_source_parses_at_the_declared_floor(path):
    source = path.read_text(encoding="utf-8")
    ast.parse(source, filename=str(path), feature_version=_declared_floor())
