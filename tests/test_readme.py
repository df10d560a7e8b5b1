"""The code README shows runs as shown, so its public API cannot drift silently."""

import ast
from pathlib import Path

from sphereuni.stats import TEST_NAMES

README = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")


def test_library_quick_start_runs(capsys):
    section = README.split("## Library quick start\n", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, "README.md", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines[:-1]] == list(TEST_NAMES)
    rates = ast.literal_eval(lines[-1])
    assert list(rates) == list(TEST_NAMES)
    assert all(0.0 <= rate <= 1.0 for rate in rates.values())
