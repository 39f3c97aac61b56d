"""Every Python file of the project parses as the oldest Python it supports.

``pyproject.toml`` allows Python 3.10, so a construct newer than 3.10
(an ``except*`` clause, a ``type`` statement, generic class syntax) in
any source, test or benchmark file would break an install the project
claims to support, whichever interpreter runs this suite.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
OLDEST = (3, 10)
SOURCES = sorted(p for d in ("src", "tests", "perfbench") for p in (ROOT / d).rglob("*.py"))


def test_oldest_version_is_the_one_pyproject_requires():
    pyproject = (ROOT / "pyproject.toml").read_text()
    assert re.search(r'^requires-python = ">=(\d+)\.(\d+)"$', pyproject, re.M).groups() == tuple(
        str(part) for part in OLDEST
    )
    assert len(SOURCES) > 20


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_parses_as_the_oldest_supported_python(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=OLDEST)
