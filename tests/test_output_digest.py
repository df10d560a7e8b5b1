"""tools/output_digest.py, the bit check of every CLI artifact, runs clean under -W error."""

import importlib.util
import re
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).parents[1] / "tools" / "output_digest.py"


def test_prints_one_digest_per_artifact(monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))  # loading the tool puts its src/ first
    spec = importlib.util.spec_from_file_location("output_digest", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)

    run = subprocess.run([sys.executable, "-W", "error", str(TOOL)],
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    lines = [re.fullmatch(r"[0-9a-f]{64}  (\S+)", line) for line in run.stdout.splitlines()]
    assert all(lines), run.stdout
    assert [line.group(1) for line in lines] == list(tool.ARTIFACTS)
