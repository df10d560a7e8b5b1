"""sphereuni benchmark: the paper's tables and a large-sample `test`.

    python3 perfbench/run.py --workload W --seed S --seconds T --trace 0|1 [--smoke]

Run from the root of a source checkout; the program is imported from
``src/`` of that checkout (nothing is installed).  This top-level process
imports no numerical code; every measurement runs in a fresh subprocess
(perfbench/child.py), so each workload starts cold and its peak RSS is its
own.  ``OPENBLAS_NUM_THREADS`` is unset for the end-to-end run, as users get
the program; the inherited value is recorded in the provenance line.

Workloads (inputs derive from --seed; the program sees master seeds and
generated files only):

- ``size-table``: ``sphereuni size-table`` over the paper's three scenarios
  under uniformity, default workers, 100 replications per cell per call.
  Small per-replication work, so engine and thread-pool overhead weigh.
- ``test-large``: ``sphereuni test`` on one generated uniform 4000x100 CSV,
  called repeatedly.  CSV parsing and one n x n Gram matrix dominate.
- ``power-table`` (runnable, not listed in BENCHMARK.json): ``sphereuni
  power-table`` over the same scenarios and the three heavy-tailed
  marginals, 30 replications per cell per call.  At default workers and
  default BLAS threads its run-to-run spread on a shared two-core host
  (0.15-0.23 of the median over 5-10 runs) is too wide to gate on; its
  cells are timed in every traced run instead (experiments.reps_per_s.*).

Each call is a closed loop: the next starts when the previous returns,
until --seconds pass, split over WORKLOAD_PARTS fresh processes whose
latencies are pooled.  With --trace 0 the run reports the end-to-end
metrics (BENCHMARK.json), with --trace 1 the per-layer ones.  The last
stdout line is the JSON result; earlier lines print each metric with its
unit, the provenance block and the correctness gates.

Correctness gates (any failure sets "correct": false):

- tables: every timed default-worker call's rejection counts equal a
  1-worker run of the same master seed, and both tables' counts at the
  seed recorded in reference.json equal the recorded ones (results are
  bit-identical per (master_seed, index));
- test-large: the three statistics agree with oracles.brute_statistics to
  1e-9, computed once when the data are generated, outside timing;
- traced run: the step-by-step replication pipeline reproduces the
  engine's aggregates exactly, and 1 and default workers agree.

Exit status: 0 with a result line; 2 without one when the checkout has no
``src/sphereuni`` or a measurement subprocess fails.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("size-table", "power-table", "test-large")
DEADLINE_S = 175.0
SETUP_PROBES = 3
# The timed calls are split over this many fresh processes and pooled: on a
# shared host the median latency of back-to-back processes differs by up to
# a fifth, and pooling several processes evens that out.
WORKLOAD_PARTS = 3

# A fresh interpreter imports the CLI and writes a 3x2 sample: the set-up a
# user pays on every invocation.
SETUP_SNIPPET = (
    "import sys, sphereuni.cli as c;"
    "sys.exit(c.main(['sample', '--n', '3', '--p', '2', '--seed', '0', '--out', sys.argv[1]]))"
)


class BenchFailure(Exception):
    """A measurement could not be taken; the run ends without a result."""


def declared_units(trace: int) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them for this kind of run."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


class Runner:
    """Starts measurement subprocesses under one deadline and waits for each."""

    def __init__(self, args: argparse.Namespace, work: Path) -> None:
        self.args = args
        self.work = work
        self.start = time.monotonic()

    def remaining(self) -> float:
        left = DEADLINE_S - (time.monotonic() - self.start)
        if left <= 1.0:
            raise BenchFailure("out of time before all measurements ran")
        return left

    def env(self, openblas_threads: str | None = None) -> dict:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(ROOT / "src")
        env.pop("OPENBLAS_NUM_THREADS", None)
        if openblas_threads is not None:
            env["OPENBLAS_NUM_THREADS"] = openblas_threads
        return env

    def run(self, argv: list[str], env: dict) -> subprocess.CompletedProcess:
        try:
            proc = subprocess.run(
                argv, env=env, cwd=ROOT, capture_output=True, text=True,
                timeout=self.remaining(),
            )
        except subprocess.TimeoutExpired as exc:  # run() has killed and reaped it
            raise BenchFailure(f"{argv[1:3]} exceeded the deadline") from exc
        if proc.returncode != 0:
            raise BenchFailure(
                f"{' '.join(argv[1:3])} exited {proc.returncode}:\n{proc.stderr[-2000:]}"
            )
        return proc

    def child(self, role: str, seconds: float, openblas_threads: str | None = None) -> dict:
        argv = [
            sys.executable, str(HERE / "child.py"), role,
            "--workload", self.args.workload, "--seed", str(self.args.seed),
            "--seconds", repr(seconds), "--work", str(self.work),
        ]
        if self.args.smoke:
            argv.append("--smoke")
        proc = self.run(argv, self.env(openblas_threads))
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def setup_seconds(self, probes: int) -> float:
        """Median wall time of a fresh CLI process; one discarded warm-up probe."""
        argv = [sys.executable, "-c", SETUP_SNIPPET, str(self.work / "setup.csv")]
        times = []
        for _ in range(probes + 1):
            t = time.perf_counter()
            self.run(argv, self.env())
            times.append(time.perf_counter() - t)
        return statistics.median(times[1:])

    def import_times(self, probes: int) -> tuple[float, float]:
        """(import sphereuni.cli, of which scipy.stats) in seconds, from -X importtime."""
        argv = [sys.executable, "-X", "importtime", "-c", "import sphereuni.cli"]
        totals, scipy_stats = [], []
        for _ in range(probes):
            rows = []
            for line in self.run(argv, self.env()).stderr.splitlines():
                m = re.match(r"import time:\s+\d+ \|\s+(\d+) \|( *)(\S+)", line)
                if m:
                    rows.append((int(m.group(1)), len(m.group(2)), m.group(3)))
            top = [us for us, depth, name in rows if depth == 1 and name.startswith("sphereuni")]
            sub = _outermost_us(rows, "scipy.stats")
            if not top or not sub:
                raise BenchFailure("could not parse -X importtime output")
            totals.append(sum(top) / 1e6)
            scipy_stats.append(sub / 1e6)
        return statistics.median(totals), statistics.median(scipy_stats)


def _outermost_us(rows: list[tuple[int, int, str]], package: str) -> int:
    """Cumulative microseconds of `package` and its submodules, counted once.

    -X importtime lists a module after its imports (post-order), so a line's
    ancestors are the later lines of successively smaller depth.  The
    package's own line can be missing (scipy loads submodules lazily), hence
    the sum over outermost matches.
    """
    total = 0
    for k, (us, depth, name) in enumerate(rows):
        if not name.startswith(package):
            continue
        nested = False
        for _, d, n in rows[k + 1:]:
            if d < depth:
                if n.startswith(package):
                    nested = True
                    break
                depth = d
        if not nested:
            total += us
    return total


def untraced(runner: Runner) -> tuple[dict, int, int, list[str], dict]:
    args = runner.args
    setup_s = runner.setup_seconds(2 if args.smoke else SETUP_PROBES)
    errors = runner.child("prepare", 0)["errors"]
    parts = [runner.child("workload", args.seconds / WORKLOAD_PARTS) for _ in range(WORKLOAD_PARTS)]
    lat = [x for part in parts for x in part["latencies"]]
    failed = sum(part["failed"] for part in parts)
    errors = sorted(set(errors).union(*(part["errors"] for part in parts)))
    reps_per_call = parts[0]["reps_per_call"]
    metrics = {
        "setup_s": setup_s,
        # from the median call, so one stalled call does not move it
        "reps_per_s": reps_per_call / statistics.median(lat),
        "latency_p50_s": statistics.median(lat),
        "latency_p90_s": statistics.quantiles(lat, n=10)[-1],
        "peak_rss_mb": max(part["peak_rss_mb"] for part in parts),
    }
    print(f"latency samples: {len(lat)} calls of {reps_per_call} replications each, "
          f"from {WORKLOAD_PARTS} processes")
    print(f"failed_ratio {failed / len(lat):.6g} (failed {failed} of {len(lat)} calls)")
    return metrics, len(lat), failed, errors, parts[0]["provenance"]


def traced(runner: Runner) -> tuple[dict, int, int, list[str], dict]:
    args = runner.args
    smoke = args.smoke
    metrics: dict[str, float] = {}
    errors: list[str] = []
    import_s, scipy_s = runner.import_times(1 if smoke else 3)
    metrics["setup.import_s"] = import_s
    metrics["setup.import_scipy_stats_s"] = scipy_s
    matrix_s = 0.5 if smoke else 0.15 * args.seconds
    for blas, value in (("blas_default", None), ("blas1", "1")):
        res = runner.child("matrix", matrix_s, openblas_threads=value)
        metrics[f"experiments.reps_per_s.w1.{blas}"] = res["w1"]
        metrics[f"experiments.reps_per_s.wN.{blas}"] = res["wN"]
        errors += res["errors"]
    metrics["experiments.parallel_speedup"] = (
        metrics["experiments.reps_per_s.wN.blas_default"]
        / metrics["experiments.reps_per_s.w1.blas_default"]
    )
    res = runner.child("trace", args.seconds)
    metrics.update(res["metrics"])
    errors += res["errors"]
    failed = int(metrics["experiments.failed_reps"])
    return metrics, res["attempted"], failed, errors, res["provenance"]


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for the self-test")
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "sphereuni" / "__init__.py").is_file():
        print(f"error: no src/sphereuni under {ROOT}; run from a source checkout", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        runner = Runner(args, Path(tmp))
        try:
            metrics, attempted, failed, errors, prov = (traced if args.trace else untraced)(runner)
        except BenchFailure as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    units = declared_units(args.trace)
    if set(metrics) != set(units):
        print(f"error: metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(units))}",
              file=sys.stderr)
        return 2
    prov["OPENBLAS_NUM_THREADS_inherited"] = os.environ.get("OPENBLAS_NUM_THREADS", "unset")
    print("provenance " + json.dumps(prov, sort_keys=True))
    result = {}
    for name, value in metrics.items():
        result[name] = {"value": value, "unit": units[name]}
        print(f"{name} {value:.6g} {units[name]}")
    for err in errors:
        print(f"correctness gate failed: {err}")
    print(f"correctness gates: {'pass' if not errors else 'FAIL'}")
    print(json.dumps({
        "correct": not errors, "attempted": attempted, "failed": failed, "metrics": result,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
