"""tools/output_digest.py, the bit check of every CLI artifact, runs clean under -W error
and prints the committed digests.

A change that means to move an artifact's bits updates DIGESTS and says why in CHANGES.md.
"""

import importlib.util
import re
import subprocess
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).parents[1] / "tools" / "output_digest.py"

# the tool's output, one line per artifact in run order
DIGESTS = """\
b2d236d9ce80acb0834bb567353d309cf4b1567c2308c0294af46d53527f57f2  sample.csv
0f1444029a8f3d70764686fc4b5b531651c7e121ed6dfcba27a9c49ad8035b87  size-table.csv
fb81cc1febb8f51e0a7d655001ce3ea983a23cf4949a00e12aada1e8cd557470  size-table.json
5a430b0c00def1fe54ace7cbd74637020ae39523e2c5719ecc7bfae8b5b25e1e  power-table.csv
db9278d5f49248ec414d2140c042781e166d851ed17aee2ea127ed292d4ead4d  power-table.json
4480fa5b39ffa0c011f7b848eded561dd14d4e36f70643f46022cb7c6b511763  test.csv
b05c0ceba9f6e9badd02d20d10f77c102e1ff9bb10fd7e5141ad023866243acd  test.json
f5596da108e4ae9aa82298122158cb37c425454232f430e5c059a9c33820a778  diagnose-rayleigh-blindness.json
fcbe64b43eda53d5cdadcffdd9e5c3a2e5cfd7fa793220f503f93a30c426d281  diagnose-bingham-scaling.json
04a8199f5408772f911f3b06604197a174a5487015645df7b953a56bf5a74bfb  diagnose-packing-lln.json
8ccccf516d848b6c6b1de438374b2078aae63d123b750d90ca4c33b6f1368300  diagnose-independence.json
b32dbe4cf739b542b7042fff3f5808760de1e96bc10a259ac8be94715f2d7f85  diagnose-fvml-blindness.json
5506e3d600e8d9e329587c247fddf82240f812dd8d027c7e4c20d86da67d38a9  diagnose-bingham-scaling-pareto.json
18b2cfe3fc2a3fb6ad0245b622d68b646059d1aea39fa481c0816cc67fcd1ebb  sample-pareto.csv
c888d0b7777168f7cde0f33f37c9957bbe4e3b5fbb5d975bf73cf218a329c873  sample-fvml.csv
e2e7431e1a016f426451e6da18df84e4be851d76cd6a29053e411b2e615ea29e  sample-cauchy.csv
55ed053e403734bb3f6bf2d19780f486c8733ca10e24c98a1119213fe98a574a  test-cauchy.json
"""


@pytest.fixture(scope="module")
def run():
    run = subprocess.run([sys.executable, "-W", "error", str(TOOL)],
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    return run


def test_prints_one_digest_per_artifact(monkeypatch, run):
    monkeypatch.setattr(sys, "path", list(sys.path))  # loading the tool puts its src/ first
    spec = importlib.util.spec_from_file_location("output_digest", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)

    lines = [re.fullmatch(r"[0-9a-f]{64}  (\S+)", line) for line in run.stdout.splitlines()]
    assert all(lines), run.stdout
    assert [line.group(1) for line in lines] == list(tool.ARTIFACTS)


def test_digests_equal_the_committed_list(run):
    assert run.stdout.splitlines() == DIGESTS.splitlines()
