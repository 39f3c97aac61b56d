"""Every Python file of the project parses as the oldest Python it supports.

``pyproject.toml`` allows Python 3.10, so a construct newer than 3.10
(an ``except*`` clause, a ``type`` statement, generic class syntax) in
any source, test or benchmark file would break an install the project
claims to support, whichever interpreter runs this suite.

Every module-level import of the package is used in its module or
exported through ``__all__``: an import left behind by a deletion fails
here instead of lingering.

Every module-level function and class of the package is named (by its
bare name) elsewhere in ``src/``, or is listed in ``UNREACHED`` with the reason it stays: a
definition that nothing reaches fails here, and so does a listed one
that becomes reached or is deleted while its entry stays.  The same
rule holds for the methods, properties, classmethods and staticmethods
of module-level classes (dunder methods aside), with ``MEMBERS_UNREACHED``
as their list.

Each tunable is declared in one place: no class of the package but
``PipelineConfig`` declares a field named like one of its fields, save
those listed in ``TUNABLE_COPIES`` with the reason each stays.
"""

from __future__ import annotations

import ast
import re
from collections import Counter
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


# Module-level definitions that no other code under src/ names, each with
# the reason it stays.
PERFBENCH_LAYER = (
    "a perfbench/tracer.py layer: perfbench/tests "
    "test_every_layer_resolves_at_this_commit needs it to resolve"
)
UNREACHED = {
    "chords.dropout_chords": PERFBENCH_LAYER,
    "chords.insert_chord_tokens": PERFBENCH_LAYER,
    "generator.grammar_mask": PERFBENCH_LAYER,
    "midi_codec.decode_events": PERFBENCH_LAYER,
    "midi_codec.encode_events": PERFBENCH_LAYER,
    "scheduler.offsets_for_sequence": PERFBENCH_LAYER,
    "tokens.format_tokens": PERFBENCH_LAYER,
    "tokens.parse_tokens": PERFBENCH_LAYER,
    "emotion.inverse_map": "documented API: the README's inverse of the emotion mapping",
    "tokens.check_manifest": "documented API: the README's vocabulary manifest check",
}


def references(node: ast.AST) -> Counter[str]:
    """Each name the node reads: a ``Name``, an ``Attribute``'s attribute or a from-import."""
    names: Counter[str] = Counter()
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            names[child.id] += 1
        elif isinstance(child, ast.Attribute):
            names[child.attr] += 1
        elif isinstance(child, ast.ImportFrom):
            names.update(alias.name for alias in child.names)
    return names


def package_trees() -> tuple[dict[str, ast.Module], Counter[str]]:
    """Each package module's tree by stem, and every name the package reads."""
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in PACKAGE}
    return trees, sum((references(tree) for tree in trees.values()), Counter())


def test_every_definition_is_reached_or_listed():
    trees, named = package_trees()
    unreached = {
        f"{module}.{node.name}"
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and named[node.name] == references(node)[node.name]  # named only inside itself
    }
    assert unreached == set(UNREACHED)


# Non-dunder members of module-level classes that no other code under src/
# names, each with the reason it stays.
MEMBERS_UNREACHED = {
    "config.PipelineConfig.save": "documented API: the README's Configuration section",
    "scheduler.GeneratorState.new": "perfbench/workloads.py calls it",
}


def test_every_class_member_is_reached_or_listed():
    trees, named = package_trees()
    unreached = {
        f"{module}.{cls.name}.{node.name}"
        for module, tree in trees.items()
        for cls in tree.body
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
        and named[node.name] == references(node)[node.name]  # named only inside itself
    }
    assert unreached == set(MEMBERS_UNREACHED)


# Classes other than PipelineConfig that declare a field named like one of
# its fields, each with the reason the copy stays.
TUNABLE_COPIES = {
    "scheduler.SchedulerParams": (
        "perfbench/workloads.py builds one, and on_token reads its ms windows"
    ),
}


def class_fields(cls: ast.ClassDef) -> set[str]:
    """The names a class body declares, annotated or assigned."""
    names = set()
    for node in cls.body:
        if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
        elif isinstance(node, ast.Assign):
            names.update(target.id for target in node.targets if isinstance(target, ast.Name))
    return names


def test_each_tunable_is_declared_by_pipeline_config_alone():
    trees, _ = package_trees()
    classes = {
        f"{module}.{node.name}": node
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, ast.ClassDef)
    }
    tunables = class_fields(classes.pop("config.PipelineConfig"))
    assert {"temperature", "top_k", "sensitivity_s", "max_offset_s"} <= tunables
    copies = {name for name, cls in classes.items() if class_fields(cls) & tunables}
    assert copies == set(TUNABLE_COPIES)
