"""Print one SHA-256 per CLI artifact, with its `generated` timestamp removed.

Run it in two checkouts and diff the output to check that a change keeps
every artifact's bits:

    python3 tools/output_digest.py > after.txt

It imports `sphereuni` from this checkout's `src/` only, and runs each
command in-process in a temporary directory, so the artifacts name their
input by a relative path and their bytes do not depend on where it runs.
"""

from __future__ import annotations

import hashlib
import os
import re
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
sys.path.insert(0, str(SRC))

import sphereuni  # noqa: E402
from sphereuni import cli  # noqa: E402

DIAGNOSE = ["--n", "20", "--p", "10", "--reps", "30", "--seed", "2", "--threads", "1"]

# artifact name: the CLI arguments that write it, in run order
ARTIFACTS = {
    "sample.csv": ["sample", "--model", "uniform", "--n", "300", "--p", "20", "--seed", "3"],
    **{
        f"{command}.{fmt}": [command, "--reps", reps, "--seed", seed, "--format", fmt]
        for command, reps, seed in (("size-table", "20", "1"), ("power-table", "10", "2"))
        for fmt in ("csv", "json")
    },
    **{f"test.{fmt}": ["test", "sample.csv", "--format", fmt] for fmt in ("csv", "json")},
    **{f"diagnose-{kind}.json": ["diagnose", kind, *DIAGNOSE] for kind in cli.DIAGNOSE_KINDS},
    # the one diagnostic path that reads a pareto marginal's tail index
    "diagnose-bingham-scaling-pareto.json": ["diagnose", "bingham-scaling", "--marginal",
                                             "pareto:1.2", *DIAGNOSE],
    # the normalization's edge paths: rows whose norm overflows, and FvML at huge kappa
    "sample-pareto.csv": ["sample", "--model", "alpha-spherical", "--marginal", "pareto:1e-300",
                          "--n", "50", "--p", "10", "--seed", "4"],
    "sample-fvml.csv": ["sample", "--model", "fvml", "--kappa", "1e300", "--n", "50", "--p", "10",
                        "--seed", "5"],
    # a heavy-tailed sample whose packing p-value (about 1.5e-17) feeds the combined p-value
    "sample-cauchy.csv": ["sample", "--model", "alpha-spherical", "--marginal", "cauchy",
                          "--n", "100", "--p", "100", "--seed", "3"],
    "test-cauchy.json": ["test", "sample-cauchy.csv", "--format", "json"],
}

# the CSV comment line and the top-level JSON key that hold the run's timestamp
GENERATED = re.compile(r'^(# generated=|  "generated": )')


def digest(text: str) -> str:
    kept = [line for line in text.splitlines(keepends=True) if not GENERATED.match(line)]
    return hashlib.sha256("".join(kept).encode("utf-8")).hexdigest()


def main() -> int:
    if SRC not in Path(sphereuni.__file__).resolve().parents:
        print(f"error: sphereuni was imported from {sphereuni.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        for name, argv in ARTIFACTS.items():
            code = cli.main([*argv, "--out", name])
            if code != 0:
                print(f"error: sphereuni {' '.join(argv)} exited {code}", file=sys.stderr)
                return 1
            print(f"{digest(Path(name).read_text(encoding='utf-8'))}  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
