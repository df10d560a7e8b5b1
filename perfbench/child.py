"""Code that runs inside the benchmark's subprocesses.

    python perfbench/child.py <role> --work DIR --workload W --seed S --seconds T [--smoke]

Roles (each prints one JSON object as its last stdout line):

- ``prepare``: once per run, before any ``workload`` child: checks the
  tables against reference.json, or writes the test-large CSV and its
  oracle statistics;
- ``workload``: one part of the untraced end-to-end run through
  ``sphereuni.cli.main``;
- ``trace``: per-layer timings of each module's public functions and a
  traced pass over the workload;
- ``matrix``: replications per second over the cells of both tables at 1
  and default workers, under whatever ``OPENBLAS_NUM_THREADS`` the parent
  process set;
- ``golden``: rejection counts for the recorded reference seed, which
  ``reference.json`` holds.

The process must find ``sphereuni`` on ``PYTHONPATH``; run.py sets it to
the checkout's ``src``.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import resource
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

_T0 = time.perf_counter()
import sphereuni.cli as cli  # noqa: E402  (timed: this is the setup layer)

IMPORT_SECONDS = time.perf_counter() - _T0

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from sphereuni import experiments, oracles  # noqa: E402
from sphereuni.experiments import (  # noqa: E402
    POWER_MARGINALS,
    TABLE1_SCENARIOS,
    ExperimentPlan,
    fvml_kappa,
    run_rejection_experiment,
)
from sphereuni.nulldist import NullLaw, upper_p_value  # noqa: E402
from sphereuni.sampling import (  # noqa: E402
    AlternativeModel,
    HeavyTailMarginal,
    SeedSpec,
    SphericalSample,
    sample_from_model,
)
from sphereuni.stats import (  # noqa: E402
    bingham_statistic,
    fisher_combination,
    packing_statistic,
    pairwise_summary,
    rayleigh_statistic,
    run_all_tests,
)

from spans import Tracer, no_span  # noqa: E402

HERE = Path(__file__).resolve().parent
LEVEL = 0.05
TEST_NAMES = ("rayleigh", "bingham", "packing", "fisher")
ORACLE_TOL = 1e-9  # same contract as the fast-path acceptance check

# Replications per cell in one CLI call: each call then takes 0.2-0.3 s on
# two cores, so a run has enough calls for a 90th percentile.
TABLE_REPS = {"size-table": 100, "power-table": 30}
TABLES = tuple(TABLE_REPS)
TEST_SHAPE = (4000, 100)
SMOKE_TEST_SHAPE = (300, 20)

SAMPLE_SHAPES = ((100, 100), (100, 400))
PAIRWISE_SHAPES = ((100, 100), (100, 400), (500, 100), (2000, 100), (4000, 100))


class BenchError(Exception):
    """The program misbehaved in a way the benchmark cannot time around."""


# ---------------------------------------------------------------------------
# inputs, all derived from the workload seed


def master_seeds(seed: int, count: int) -> list[int]:
    """Master seeds handed to the program; a pure function of the workload seed."""
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(count)]


def uniform_rows(n: int, p: int, seed: int, tag: int) -> np.ndarray:
    """Unit rows drawn by the benchmark itself, independent of sphereuni's samplers."""
    z = np.random.default_rng([seed, tag]).standard_normal((n, p))
    return z / np.linalg.norm(z, axis=1)[:, None]


def table_models(workload: str) -> list[tuple[str | None, AlternativeModel]]:
    """(row label as the CLI prints it, model) for each table row group."""
    if workload == "size-table":
        return [(None, AlternativeModel.uniform())]
    return [
        (cli.marginal_label(m), AlternativeModel.alpha_spherical(m))
        for m in POWER_MARGINALS
    ]


def table_cells(workload: str) -> list[tuple[str | None, AlternativeModel, int, int]]:
    return [
        (label, model, n, p)
        for label, model in table_models(workload)
        for n, p in TABLE1_SCENARIOS
    ]


def cell_key(test: str, label: str | None, n: int, p: int) -> str:
    return f"{test}|{label or '-'}|{n}x{p}"


def engine_counts(workload: str, reps: int, master_seed: int, threads: int) -> dict[str, int]:
    """Rejection counts per (test, row, scenario) through run_rejection_experiment."""
    counts = {}
    for label, model, n, p in table_cells(workload):
        plan = ExperimentPlan(
            n=n, p=p, model=model, replications=reps, level=LEVEL, master_seed=master_seed
        )
        result = run_rejection_experiment(plan, threads=threads)
        for test, agg in result.per_test.items():
            counts[cell_key(test, label, n, p)] = agg.rejections
    return counts


def cli_table_counts(path: Path, reps: int) -> dict[str, int]:
    """Rejection counts parsed back from a table artifact the CLI wrote."""
    doc = json.loads(path.read_text(encoding="utf-8"))
    counts = {}
    for row in doc["rows"]:
        for n, p in TABLE1_SCENARIOS:
            rate = row[f"n{n}_p{p}"]
            counts[cell_key(row["test"], row.get("marginal"), n, p)] = round(rate * reps)
    return counts


def write_csv(path: Path, rows: np.ndarray) -> None:
    np.savetxt(path, rows, delimiter=",", fmt="%.17g")


def check_test_artifact(path: Path, expected: tuple[float, float, float]) -> str | None:
    """None when the CLI's three statistics match `expected` to ORACLE_TOL."""
    doc = json.loads(path.read_text(encoding="utf-8"))
    got = {o["test"]: o for o in doc["outcomes"]}
    if set(got) != set(TEST_NAMES):
        return f"test output lists {sorted(got)}"
    for name, want in zip(TEST_NAMES, expected):
        have = got[name]["statistic"]
        if not abs(have - want) / max(1.0, abs(want)) <= ORACLE_TOL:
            return f"{name} statistic {have!r} differs from reference {want!r}"
    for o in got.values():
        if not 0.0 <= o["p_value"] <= 1.0:
            return f"{o['test']} p-value {o['p_value']!r} outside [0, 1]"
    return None


def golden_check() -> str | None:
    """None when both tables' counts at default workers equal those in reference.json."""
    ref = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))
    for table in TABLES:
        if engine_counts(table, ref["reps"], ref["master_seed"], threads=0) != ref[table]:
            return f"{table} rejection counts at recorded seed {ref['master_seed']} changed"
    return None


# ---------------------------------------------------------------------------
# provenance


def _blas() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except Exception as exc:  # the config layout differs across numpy releases
        return f"unknown ({type(exc).__name__})"


def _cpu_quota() -> str:
    for path in ("/sys/fs/cgroup/cpu.max", "/sys/fs/cgroup/cpu/cpu.cfs_quota_us"):
        try:
            return Path(path).read_text(encoding="utf-8").strip()
        except OSError:
            continue
    return "unavailable"


def _default_workers() -> int | str:
    resolve = getattr(experiments, "_resolve_workers", None)
    return resolve(0) if resolve is not None else "unresolved"


def provenance(seed: int) -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cgroup_cpu_quota": _cpu_quota(),
        "blas": _blas(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "default_workers": _default_workers(),
        "workload_seed": seed,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


# ---------------------------------------------------------------------------
# untraced end-to-end workloads


def _time_calls(argv_for, check, seconds: float, min_calls: int) -> tuple[list[float], int, list[str]]:
    """Call cli.main until `seconds` pass; per-call latency, failures, check errors."""
    latencies: list[float] = []
    failed = 0
    errors: list[str] = []
    start = time.perf_counter()
    k = 0
    while k < min_calls or time.perf_counter() - start < seconds:
        argv = argv_for(k)
        t = time.perf_counter()
        code = cli.main(argv)
        latencies.append(time.perf_counter() - t)
        if code != 0:
            failed += 1
        else:
            err = check(k)
            if err is not None:
                errors.append(err)
        k += 1
    return latencies, failed, errors


def run_table_workload(args, work: Path) -> dict:
    reps = 3 if args.smoke else TABLE_REPS[args.workload]
    seeds = master_seeds(args.seed, 3)
    errors = []
    # one-worker reference per master seed, recorded before the timed loop
    reference = {ms: engine_counts(args.workload, reps, ms, threads=1) for ms in seeds}
    out = work / f"table-{os.getpid()}.json"

    def argv_for(k: int) -> list[str]:
        return [
            args.workload, "--reps", str(reps), "--seed", str(seeds[k % len(seeds)]),
            "--format", "json", "--out", str(out),
        ]

    def check(k: int) -> str | None:
        ms = seeds[k % len(seeds)]
        if cli_table_counts(out, reps) != reference[ms]:
            return f"default-worker counts differ from the 1-worker reference at seed {ms}"
        return None

    cli.main(argv_for(0))  # warm-up: thread pool, BLAS and lazy imports
    latencies, failed, check_errors = _time_calls(argv_for, check, args.seconds, 3)
    errors += check_errors
    cells = len(table_cells(args.workload))
    return {
        "latencies": latencies,
        "reps_per_call": reps * cells,
        "failed": failed,
        "errors": errors,
    }


def role_prepare(args, work: Path) -> dict:
    """Untimed per-run set-up shared by the run's `workload` children."""
    if args.workload != "test-large":
        err = golden_check()
        return {"errors": [err] if err else []}
    n, p = SMOKE_TEST_SHAPE if args.smoke else TEST_SHAPE
    rows = uniform_rows(n, p, args.seed, 0)
    write_csv(work / "data.csv", rows)
    expected = oracles.brute_statistics(SphericalSample.from_rows(rows))
    (work / "expected.json").write_text(json.dumps(expected), encoding="utf-8")
    return {"errors": []}


def run_test_workload(args, work: Path) -> dict:
    data = work / "data.csv"
    expected = tuple(json.loads((work / "expected.json").read_text(encoding="utf-8")))
    out = work / f"test-{os.getpid()}.json"
    argv = ["test", str(data), "--format", "json", "--out", str(out)]
    cli.main(argv)  # warm-up
    latencies, failed, errors = _time_calls(
        lambda k: argv, lambda k: check_test_artifact(out, expected), args.seconds, 3
    )
    return {"latencies": latencies, "reps_per_call": 1, "failed": failed, "errors": errors}


def role_workload(args, work: Path) -> dict:
    if args.workload == "test-large":
        res = run_test_workload(args, work)
    else:
        res = run_table_workload(args, work)
    res["peak_rss_mb"] = peak_rss_mb()
    res["provenance"] = provenance(args.seed)
    # dedupe: one mismatch repeats on every call of the same seed
    res["errors"] = sorted(set(res["errors"]))
    return res


# ---------------------------------------------------------------------------
# per-layer timings through public functions


def _median_call_seconds(fn, budget: float, min_calls: int = 3) -> float:
    """Median wall time of fn(i) over repeated calls for about `budget` seconds."""
    times = []
    start = time.perf_counter()
    i = 0
    while i < min_calls or time.perf_counter() - start < budget:
        t = time.perf_counter()
        fn(i)
        times.append(time.perf_counter() - t)
        i += 1
    return statistics.median(times)


def _peak_mb(fn) -> float:
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        fn()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def sampler_models(n: int, p: int) -> dict[str, AlternativeModel]:
    return {
        "uniform": AlternativeModel.uniform(),
        "cauchy": AlternativeModel.alpha_spherical(HeavyTailMarginal.cauchy()),
        "t1.5": AlternativeModel.alpha_spherical(HeavyTailMarginal.student_t(1.5)),
        "chisq1": AlternativeModel.alpha_spherical(HeavyTailMarginal.centered_chisq1()),
        "fvml": AlternativeModel.fvml(fvml_kappa(n, p, 1.0)),
    }


def layer_metrics(seed: int, budget: float) -> dict[str, float]:
    ms = master_seeds(seed, 1)[0]
    out: dict[str, float] = {}
    for n, p in SAMPLE_SHAPES:
        for name, model in sampler_models(n, p).items():
            sec = _median_call_seconds(
                lambda i: sample_from_model(model, n, p, SeedSpec(ms, i)), budget
            )
            out[f"sampling.sample_us.{name}.{n}x{p}"] = sec * 1e6
    out["sampling.seed_us"] = 1e6 * _median_call_seconds(
        lambda i: SeedSpec(ms, i).generator(), budget
    )
    rows = uniform_rows(100, 100, seed, 1)
    out["sampling.validate_us"] = 1e6 * _median_call_seconds(
        lambda i: SphericalSample(n=100, p=100, rows=rows), budget
    )
    for n, p in PAIRWISE_SHAPES:
        sample = SphericalSample.from_rows(uniform_rows(n, p, seed, 2))
        sec = _median_call_seconds(lambda i: pairwise_summary(sample), budget)
        shape = f"{n}x{p}"
        out[f"stats.pairwise_us.{shape}"] = sec * 1e6
        out[f"stats.pairwise_gflops.{shape}"] = n * n * p / sec / 1e9
        out[f"stats.pairwise_peak_mb.{shape}"] = _peak_mb(lambda: pairwise_summary(sample))
    sample = SphericalSample.from_rows(rows)
    out["stats.run_all_tests_us"] = 1e6 * _median_call_seconds(
        lambda i: run_all_tests(sample, LEVEL), budget
    )
    summary = pairwise_summary(sample)
    stats3 = (rayleigh_statistic(summary), bingham_statistic(summary), packing_statistic(summary))
    out["nulldist.pvalues_us"] = 1e6 * _median_call_seconds(
        lambda i: _pvalues(*stats3), budget
    )
    return out


def _pvalues(r: float, b: float, pk: float):
    pr = upper_p_value(NullLaw.STANDARD_NORMAL, r)
    pb = upper_p_value(NullLaw.STANDARD_NORMAL, b)
    pp = upper_p_value(NullLaw.PACKING_GUMBEL, pk)
    return (pr, pb, pp), fisher_combination(pr, pb, pp, LEVEL)


# ---------------------------------------------------------------------------
# traced replication pipeline


def replicate(model, n: int, p: int, ms: int, i: int, span) -> tuple[tuple, tuple]:
    """Replication i of one cell, step by step through public calls.

    Returns the (rayleigh, bingham, packing, fisher) statistics and rejects.
    """
    with span("experiments.replication", "experiments", i):
        with span("sampling.seed", "sampling", i):
            seed = SeedSpec(ms, i)
        with span("sampling.sample", "sampling", i):
            sample = sample_from_model(model, n, p, seed)
        with span("stats.pairwise_summary", "stats", i):
            summary = pairwise_summary(sample)
        with span("stats.statistics", "stats", i):
            r = rayleigh_statistic(summary)
            b = bingham_statistic(summary)
            pk = packing_statistic(summary)
        with span("nulldist.pvalues", "nulldist", i):
            ps, fisher = _pvalues(r, b, pk)
    stats4 = (r, b, pk, fisher.statistic)
    rejects = (ps[0] <= LEVEL, ps[1] <= LEVEL, ps[2] <= LEVEL, fisher.reject)
    return stats4, rejects


def pipeline_pass(cells, reps: int, ms: int, span) -> tuple[dict, int]:
    """Every replication of every cell.

    Returns per cell the statistic and reject arrays of the replications
    that completed, and the number that raised.
    """
    out = {}
    failed = 0
    for label, model, n, p in cells:
        results = []
        for i in range(reps):
            try:
                results.append(replicate(model, n, p, ms, i, span))
            except Exception:  # counted as a failed operation; the gate reports it
                failed += 1
        stats = np.array([r[0] for r in results])
        rejects = np.array([r[1] for r in results], dtype=bool)
        out[(label, n, p)] = (stats, rejects)
    return out, failed


def compare_with_engine(cells, reps, ms, pipeline: dict, engine_results: list) -> list[str]:
    """The pipeline must reproduce the engine's aggregates bit for bit."""
    errors = []
    for (label, model, n, p), result in zip(cells, engine_results):
        stats, rejects = pipeline[(label, n, p)]
        for j, test in enumerate(TEST_NAMES):
            agg = result.per_test[test]
            if agg.rejections != int(rejects[:, j].sum()) or agg.stat_mean != float(
                stats[:, j].mean()
            ):
                errors.append(f"traced pipeline differs from the engine: {test} in {cell_key(test, label, n, p)}")
        # spot check against the combined entry point on the first replication
        outcomes = run_all_tests(sample_from_model(model, n, p, SeedSpec(ms, 0)), LEVEL)
        if tuple(o.statistic for o in outcomes) != tuple(stats[0]):
            errors.append(f"run_all_tests differs from the step-by-step pipeline at {n}x{p}")
    return errors


def span_overhead(untraced_s: list[float], traced_s: list[float]) -> float:
    """Median over adjacent untraced/traced pairs of traced/untraced - 1.

    Pairs run back to back, so host drift between them mostly cancels.
    """
    return statistics.median(t / u for u, t in zip(untraced_s, traced_s)) - 1.0


def engine_vs_pipeline(cells, reps: int, ms: int, budget: float) -> dict:
    """Alternate three passes over `cells` at one worker for about `budget` seconds.

    The passes: the replications step by step through public calls without
    spans, the same with spans, and run_rejection_experiment itself.  The
    engine's own time is its pass minus the untraced step-by-step pass; the
    traced pass splits the rest into sampling, stats and nulldist.
    """
    plans = [
        ExperimentPlan(n=n, p=p, model=model, replications=reps, level=LEVEL, master_seed=ms)
        for _, model, n, p in cells
    ]
    errors: list[str] = []
    untraced_s, traced_s, engine_s = [], [], []
    layer_s: dict[str, list[float]] = {k: [] for k in ("sampling", "stats", "nulldist")}
    start = time.perf_counter()
    while len(traced_s) < 3 or time.perf_counter() - start < budget:
        t = time.perf_counter()
        pipeline_pass(cells, reps, ms, no_span)
        untraced_s.append(time.perf_counter() - t)
        tracer = Tracer()
        t = time.perf_counter()
        pipeline, failed = pipeline_pass(cells, reps, ms, tracer.span)
        traced_s.append(time.perf_counter() - t)
        selfs = tracer.self_seconds()
        for layer, values in layer_s.items():
            values.append(selfs.get(layer, 0.0))
        if failed:  # the engine would raise on the same replication
            errors.append(f"{failed} of {reps * len(cells)} replications raised")
            break
        t = time.perf_counter()
        engine_results = [run_rejection_experiment(plan, threads=1) for plan in plans]
        engine_s.append(time.perf_counter() - t)
    if not failed:
        errors += compare_with_engine(cells, reps, ms, pipeline, engine_results)
    untraced = statistics.median(untraced_s)
    traced = statistics.median(traced_s)
    engine = statistics.median(engine_s) if engine_s else untraced
    return {
        "errors": errors,
        "failed": failed,
        "engine": engine,
        "span_overhead": span_overhead(untraced_s, traced_s),
        # traced self times, scaled to the untraced pass so span cost is not charged to a layer
        "layers": {k: statistics.median(v) * untraced / traced for k, v in layer_s.items()},
        "overhead_us_per_rep": 1e6 * (engine - untraced) / (reps * len(cells)),
    }


def traced_table_pass(args, work: Path, budget: float) -> tuple[dict, list[str], dict]:
    """Per-layer self time of one table call in a fresh process.

    The engine and layer split come from `engine_vs_pipeline`; one cli.main
    call with a pass-through span around run_rejection_experiment gives the
    CLI's own time.
    """
    reps = 3 if args.smoke else TABLE_REPS[args.workload]
    cells = table_cells(args.workload)
    ms = master_seeds(args.seed, 1)[0]
    split = engine_vs_pipeline(cells, reps, ms, budget)
    errors = split["errors"]

    tracer = Tracer()
    real_engine = cli.run_rejection_experiment

    def traced_engine(plan, threads=0):
        with tracer.span("experiments.run_rejection_experiment", "experiments"):
            return real_engine(plan, threads=threads)

    cli.run_rejection_experiment = traced_engine
    try:
        with tracer.span("cli.main", "cli"):
            code = cli.main([
                args.workload, "--reps", str(reps), "--seed", str(ms), "--threads", "1",
                "--format", "json", "--out", str(work / "traced.json"),
            ])
    finally:
        cli.run_rejection_experiment = real_engine
    if code != 0:
        errors.append(f"traced {args.workload} call exited {code}")
    elif len(tracer.durations("experiments.run_rejection_experiment")) != len(cells):
        raise BenchError("cli.main no longer calls run_rejection_experiment once per cell")
    cli_self = tracer.self_seconds()["cli"]

    engine, work_s = split["engine"], split["layers"]
    total = IMPORT_SECONDS + cli_self + engine
    shares = {
        "setup": IMPORT_SECONDS / total,
        "cli": cli_self / total,
        "experiments": (engine - sum(work_s.values())) / total,
        **{k: v / total for k, v in work_s.items()},
    }
    metrics = {
        "experiments.overhead_us_per_rep": split["overhead_us_per_rep"],
        "experiments.failed_reps": split["failed"],
        "trace.overhead_share": split["span_overhead"],
    }
    return shares, errors, metrics


def traced_test_pass(args, work: Path, rows: np.ndarray, expected, budget: float):
    """Spans for `sphereuni test` on one CSV: CLI self time, CSV load, tests, p-values.

    Returns (shares, errors, metrics).  `expected` is the oracle triple, or
    None to check the CLI against the library path instead.
    """
    data = work / "traced.csv"
    write_csv(data, rows)
    out = work / "traced-test.json"
    argv = ["test", str(data), "--format", "json", "--out", str(out)]
    tracer = Tracer()
    real_load, real_tests = cli.load_data_csv, cli.run_all_tests

    def traced_load(path):
        with tracer.span("cli.load_data_csv", "cli"):
            return real_load(path)

    def traced_tests(sample, level=0.05):
        with tracer.span("stats.run_all_tests", "stats"):
            return real_tests(sample, level)

    # untraced and traced calls alternate, so drift does not read as span cost
    untraced_s, traced_s = [], []
    errors: list[str] = []
    start = time.perf_counter()
    while len(traced_s) < 3 or time.perf_counter() - start < budget:
        t = time.perf_counter()
        code = cli.main(argv)
        untraced_s.append(time.perf_counter() - t)
        cli.load_data_csv, cli.run_all_tests = traced_load, traced_tests
        try:
            t = time.perf_counter()
            with tracer.span("cli.main", "cli"):
                code |= cli.main(argv)
            traced_s.append(time.perf_counter() - t)
        finally:
            cli.load_data_csv, cli.run_all_tests = real_load, real_tests
        if code != 0:
            raise BenchError("test call failed")
    load = tracer.durations("cli.load_data_csv")
    tests = tracer.durations("stats.run_all_tests")
    calls = tracer.durations("cli.main")
    if not len(load) == len(tests) == len(calls):
        raise BenchError("cli.main no longer calls load_data_csv and run_all_tests once")

    # split run_all_tests into kernel + statistics (stats) and p-values (nulldist)
    sample = real_load(str(data))
    pipe = Tracer()
    for _ in calls:
        with pipe.span("stats.pairwise_summary", "stats"):
            summary = pairwise_summary(sample)
        with pipe.span("stats.statistics", "stats"):
            stats3 = (rayleigh_statistic(summary), bingham_statistic(summary), packing_statistic(summary))
        with pipe.span("nulldist.pvalues", "nulldist"):
            _pvalues(*stats3)
    err = check_test_artifact(out, expected if expected is not None else stats3)
    if err:
        errors.append(err)

    # per-call differences first, then medians: medians do not subtract
    main_s = statistics.median(calls)
    tests_s = statistics.median(tests)
    null_s = statistics.median(pipe.durations("nulldist.pvalues"))
    cli_self = statistics.median([c - t for c, t in zip(calls, tests)])
    total = IMPORT_SECONDS + main_s
    shares = {
        "setup": IMPORT_SECONDS / total,
        "cli": cli_self / total,
        "experiments": 0.0,
        "sampling": 0.0,
        "stats": (tests_s - null_s) / total,
        "nulldist": null_s / total,
    }
    metrics = {
        "cli.load_csv_s": statistics.median(load),
        "cli.emit_s": statistics.median([c - ld - t for c, ld, t in zip(calls, load, tests)]),
        "trace.overhead_share": span_overhead(untraced_s, traced_s),
    }
    return shares, errors, metrics


def role_trace(args, work: Path) -> dict:
    budget = 0.05 if args.smoke else max(0.05, 0.02 * args.seconds)
    metrics = layer_metrics(args.seed, budget)
    n, p = SMOKE_TEST_SHAPE if args.smoke else TEST_SHAPE
    rows = uniform_rows(n, p, args.seed, 0)
    if args.workload == "test-large":
        expected = oracles.brute_statistics(SphericalSample.from_rows(rows))
        shares, errors, extra = traced_test_pass(args, work, rows, expected, 10 * budget)
        metrics.update(extra)
        # no engine in this workload: take the engine figures from the uniform 100x100 cell
        attempted = 3 if args.smoke else 200
        split = engine_vs_pipeline(
            [(None, AlternativeModel.uniform(), 100, 100)], attempted,
            master_seeds(args.seed, 1)[0], 5 * budget,
        )
        errors += split["errors"]
        metrics["experiments.overhead_us_per_rep"] = split["overhead_us_per_rep"]
        metrics["experiments.failed_reps"] = split["failed"]
    else:
        # the CLI test path on the same CSV shape, checked against the library path
        _, errors, extra = traced_test_pass(args, work, rows, None, 10 * budget)
        metrics["cli.load_csv_s"] = extra["cli.load_csv_s"]
        metrics["cli.emit_s"] = extra["cli.emit_s"]
        err = golden_check()
        if err:
            errors.append(err)
        shares, errs, extra = traced_table_pass(args, work, 10 * budget)
        errors += errs
        attempted = (3 if args.smoke else TABLE_REPS[args.workload]) * len(table_cells(args.workload))
        metrics.update(extra)
    for layer, share in shares.items():
        metrics[f"trace.{layer}.self_share"] = share
    return {
        "metrics": metrics,
        "attempted": attempted,
        "errors": sorted(set(errors)),
        "provenance": provenance(args.seed),
    }


# ---------------------------------------------------------------------------
# worker / BLAS matrix


def role_matrix(args, work: Path) -> dict:
    """Alternating 1-worker and default-worker passes over every cell of both tables."""
    ms = master_seeds(args.seed, 1)[0]
    plans = [
        ExperimentPlan(
            n=n, p=p, model=model, replications=3 if args.smoke else TABLE_REPS[table],
            level=LEVEL, master_seed=ms,
        )
        for table in TABLES
        for _, model, n, p in table_cells(table)
    ]
    reps = sum(plan.replications for plan in plans)
    rates = {1: [], 0: []}
    results = {}
    start = time.perf_counter()
    while len(rates[0]) < 2 or time.perf_counter() - start < args.seconds:
        for threads in (1, 0):
            t = time.perf_counter()
            results[threads] = [run_rejection_experiment(plan, threads=threads) for plan in plans]
            rates[threads].append(reps / (time.perf_counter() - t))
    errors = []
    for a, b in zip(results[1], results[0]):
        if {k: v.rejections for k, v in a.per_test.items()} != {
            k: v.rejections for k, v in b.per_test.items()
        }:
            errors.append("rejection counts differ between 1 and default workers")
    return {
        "w1": statistics.median(rates[1]),
        "wN": statistics.median(rates[0]),
        "errors": errors,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
    }


def role_golden(args, work: Path) -> dict:
    ref = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))
    return {
        table: engine_counts(table, ref["reps"], ref["master_seed"], threads=1)
        for table in TABLES
    }


ROLES = {
    "prepare": role_prepare,
    "workload": role_workload,
    "trace": role_trace,
    "matrix": role_matrix,
    "golden": role_golden,
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("role", choices=sorted(ROLES))
    parser.add_argument("--workload", default="size-table")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--work", required=True, help="scratch directory for CSVs and artifacts")
    args = parser.parse_args()
    result = ROLES[args.role](args, Path(args.work))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
