"""The sphereuni API that the benchmark under perfbench/ uses still exists.

perfbench's own tests run the benchmark end to end and take minutes; this
reads its source with `ast` and checks, in milliseconds, that every
sphereuni name it imports resolves, that every attribute it takes from an
imported sphereuni module exists, and that the result fields it reads are
still there.  A string constant that holds Python code, such as a
`python -c` snippet, is read the same way.  The last checks make, at a
few replications, the calls that perfbench's traced runs count, and
check each count that would otherwise fail a traced run.  Nothing under
perfbench/ is imported or changed.
"""

import ast
import dataclasses
import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

from sphereuni import cli, experiments
from sphereuni.experiments import POWER_MARGINALS

PERFBENCH = Path(__file__).parents[1] / "perfbench"
SOURCES = sorted(PERFBENCH.glob("*.py"))


def sphereuni_uses(tree: ast.Module) -> tuple[list[tuple[str, str]], list[tuple[str, str]]]:
    """(module, name) pairs imported from sphereuni (name "" for a module
    itself), and (module, attribute) pairs read or set through a name bound
    to a sphereuni module, in `tree` and in each string constant of it that
    parses as Python, each read in its own scope."""
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
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                code = ast.parse(node.value)
            except SyntaxError:
                continue
            more_imported, more_attributes = sphereuni_uses(code)
            imported += more_imported
            attributes += more_attributes
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


def test_guard_finds_what_run_py_snippets_use():
    # run.py reaches sphereuni only through `python -c` snippets
    imported, attributes = sphereuni_uses(
        ast.parse((PERFBENCH / "run.py").read_text(encoding="utf-8"))
    )
    assert ("sphereuni.cli", "") in imported
    assert ("sphereuni.cli", "main") in attributes


def test_aggregate_keeps_the_fields_perfbench_reads():
    fields = {f.name for f in dataclasses.fields(experiments.TestAggregate)}
    assert fields >= {"rejections", "rate", "stat_mean"}
    assert "per_test" in {f.name for f in dataclasses.fields(experiments.ExperimentResult)}


def counting(monkeypatch, name: str) -> list:
    """Replace `cli.<name>` by a pass-through that appends each call to the returned list."""
    real, calls = getattr(cli, name), []

    def passthrough(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, name, passthrough)
    return calls


@pytest.mark.parametrize("command, cells",
                         [("size-table", 2), ("power-table", 2 * len(POWER_MARGINALS))])
def test_table_calls_the_engine_once_per_cell(tmp_path, monkeypatch, command, cells):
    """perfbench/child.py:557-558 fails a traced table run otherwise."""
    calls = counting(monkeypatch, "run_rejection_experiment")
    assert cli.main([command, "--reps", "2", "--scenarios", "5x3,6x3", "--threads", "1",
                     "--out", str(tmp_path / "t.json")]) == 0
    assert len(calls) == cells


def test_test_command_loads_and_tests_once(tmp_path, monkeypatch):
    """perfbench/child.py:619-620 fails a traced test-large run otherwise."""
    data = tmp_path / "d.csv"
    assert cli.main(["sample", "--n", "6", "--p", "3", "--out", str(data)]) == 0
    loads, tests = counting(monkeypatch, "load_data_csv"), counting(monkeypatch, "run_all_tests")
    assert cli.main(["test", str(data), "--out", str(tmp_path / "o.csv")]) == 0
    assert (len(loads), len(tests)) == (1, 1)


def test_import_of_the_cli_loads_scipy_stats():
    """perfbench/run.py:159-160 fails a traced run whose `-X importtime` shows no
    `scipy.stats` under `import sphereuni.cli`.  The harness step of ROADMAP's cold-start
    item, which makes an import without it a valid reading, retires this check."""
    src = str(Path(__file__).parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    code = "import sys, sphereuni.cli; sys.exit('scipy.stats' not in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0
