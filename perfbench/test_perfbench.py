"""Self-test of the benchmark at tiny sizes.

    python -m pytest perfbench/test_perfbench.py

Runs every workload in smoke mode, traced and untraced, and checks the
result line against BENCHMARK.json: every metric named there is emitted
with its unit, the correctness gates ran and passed, and nothing failed.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
RUN = ROOT / "perfbench" / "run.py"


def run_bench(root: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=root, capture_output=True, text=True, timeout=170,
    )


# power-table stays runnable although BENCHMARK.json does not list it
@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]] + ["power-table"])
def test_smoke_emits_every_metric(workload, trace):
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert "correctness gates: pass" in lines
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for m in expected:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))


def _copy_checkout(dest: Path, with_src: bool) -> Path:
    shutil.copy(ROOT / "BENCHMARK.json", dest / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", dest / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    if with_src:
        shutil.copytree(ROOT / "src", dest / "src", ignore=shutil.ignore_patterns("__pycache__"))
    return dest


def test_changed_reference_counts_fail_the_gate(tmp_path):
    root = _copy_checkout(tmp_path, with_src=True)
    ref_path = root / "perfbench" / "reference.json"
    ref = json.loads(ref_path.read_text(encoding="utf-8"))
    key = next(iter(ref["size-table"]))
    ref["size-table"][key] += 1
    ref_path.write_text(json.dumps(ref), encoding="utf-8")
    proc = run_bench(root, "size-table", 0)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.strip().splitlines()[-1])["correct"] is False


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    root = _copy_checkout(tmp_path, with_src=False)
    proc = run_bench(root, "size-table", 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
