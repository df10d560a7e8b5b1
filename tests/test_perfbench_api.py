"""The sphereuni API that the benchmark under perfbench/ uses still exists.

perfbench's own tests run the benchmark end to end and take minutes; this
reads its source with `ast` and checks, in milliseconds, that every
sphereuni name it imports resolves, that every attribute it takes from an
imported sphereuni module exists, and that the result fields it reads are
still there.  Nothing under perfbench/ is imported or changed.
"""

import ast
import dataclasses
import importlib
import importlib.util
from pathlib import Path

import pytest

from sphereuni import experiments

PERFBENCH = Path(__file__).parents[1] / "perfbench"
SOURCES = sorted(PERFBENCH.glob("*.py"))


def sphereuni_uses(tree: ast.Module) -> tuple[list[tuple[str, str]], list[tuple[str, str]]]:
    """(module, name) pairs imported from sphereuni (name "" for a module
    itself), and (module, attribute) pairs read or set through a name bound
    to a sphereuni module."""
    imported, modules = [], {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "sphereuni":
                    imported.append((alias.name, ""))
                    if alias.asname:
                        modules[alias.asname] = alias.name
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "sphereuni":
            package = importlib.util.find_spec(node.module).submodule_search_locations
            for alias in node.names:
                submodule = f"{node.module}.{alias.name}"
                if package is not None and importlib.util.find_spec(submodule) is not None:
                    imported.append((submodule, ""))
                    modules[alias.asname or alias.name] = submodule
                else:
                    imported.append((node.module, alias.name))
    attributes = [
        (modules[node.value.id], node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in modules
    ]
    return imported, attributes


@pytest.mark.parametrize("path", SOURCES, ids=[path.name for path in SOURCES])
def test_every_sphereuni_name_perfbench_uses_exists(path):
    imported, attributes = sphereuni_uses(ast.parse(path.read_text(encoding="utf-8")))
    for module, name in imported:
        loaded = importlib.import_module(module)
        assert not name or hasattr(loaded, name), f"{path.name}: from {module} import {name}"
    for module, attr in attributes:
        assert hasattr(importlib.import_module(module), attr), f"{path.name}: {module}.{attr}"


def test_guard_finds_what_child_uses():
    # the guard above is only as good as what it finds
    imported, attributes = sphereuni_uses(
        ast.parse((PERFBENCH / "child.py").read_text(encoding="utf-8"))
    )
    assert {("sphereuni.cli", ""), ("sphereuni.experiments", ""), ("sphereuni.oracles", "")} <= set(
        imported
    )
    assert {("sphereuni.cli", "main"), ("sphereuni.oracles", "brute_statistics")} <= set(attributes)


def test_aggregate_keeps_the_fields_perfbench_reads():
    fields = {f.name for f in dataclasses.fields(experiments.TestAggregate)}
    assert fields >= {"rejections", "rate", "stat_mean"}
