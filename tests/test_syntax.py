"""Every Python file of the project parses as the oldest Python it supports.

``pyproject.toml`` allows Python 3.10, so a construct newer than 3.10
(an ``except*`` clause, a ``type`` statement, generic class syntax) in
any source, test or benchmark file would break an install the project
claims to support, whichever interpreter runs this suite.

Every module-level import of the package is used in its module or
exported through ``__all__``: an import left behind by a deletion fails
here instead of lingering.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
OLDEST = (3, 10)
SOURCES = sorted(p for d in ("src", "tests", "perfbench") for p in (ROOT / d).rglob("*.py"))
PACKAGE = sorted((ROOT / "src" / "midisync").glob("*.py"))


def test_oldest_version_is_the_one_pyproject_requires():
    pyproject = (ROOT / "pyproject.toml").read_text()
    assert re.search(r'^requires-python = ">=(\d+)\.(\d+)"$', pyproject, re.M).groups() == tuple(
        str(part) for part in OLDEST
    )
    assert len(SOURCES) > 20


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_parses_as_the_oldest_supported_python(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=OLDEST)


def unused_imports(tree: ast.Module) -> list[str]:
    """Names bound by the module's top-level imports that it neither reads nor exports."""
    imports = [node for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))]
    bound = [
        (alias.asname or alias.name).partition(".")[0]
        for node in imports
        if getattr(node, "module", None) != "__future__"
        for alias in node.names
    ]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported: set[str] = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported.update(ast.literal_eval(node.value))
    return [name for name in bound if name not in read and name not in exported]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_every_module_level_import_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert unused_imports(tree) == []
