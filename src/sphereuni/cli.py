"""Command-line front end.

    sphereuni test data.csv --level 0.05
    sphereuni sample --model alpha-spherical --marginal cauchy --n 100 --p 50
    sphereuni size-table --reps 2000 --out table1.csv
    sphereuni power-table --reps 2000 --format json
    sphereuni diagnose independence --n 100 --p 100

Every command accepts --config pointing at a flat JSON document whose
keys mirror the flags; explicit flags win.  The fully resolved config is
embedded in every output artifact ("# config=" comment lines in CSV, a
"config" field in JSON) so any artifact can be reproduced from itself.
Exit codes: 0 success, 2 usage/config/data error, 1 internal error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import traceback
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .experiments import (
    TABLE1_SCENARIOS,
    POWER_MARGINALS,
    ExperimentPlan,
    run_bingham_scaling_diagnostic,
    run_fvml_packing_blindness,
    run_independence_diagnostic,
    run_packing_lln_diagnostic,
    run_rayleigh_blindness_diagnostic,
    run_rejection_experiment,
)
from .sampling import (
    AlternativeModel,
    HeavyTailMarginal,
    SeedSpec,
    SphericalSample,
    sample_from_model,
)
from .stats import run_all_tests

DIAGNOSE_KINDS = (
    "rayleigh-blindness",
    "bingham-scaling",
    "packing-lln",
    "independence",
    "fvml-blindness",
)

NORMALIZE_NOTICE_TOL = 1e-6


class CliError(Exception):
    """Usage, config, or data problem; maps to exit code 2."""


# ---------------------------------------------------------------------------
# config resolution and artifact writing


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise CliError(f"cannot read config file {path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CliError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise CliError(f"config file {path} must hold a flat JSON object")
    return doc


def _integer(value) -> int:
    """int() that refuses to truncate: 3.0 and "3" pass, 2.5 and inf do not."""
    if isinstance(value, float) and not value.is_integer():
        raise ValueError(f"{value!r} is not an integer")
    return int(value)


def _output_format(value) -> str:
    if value not in ("csv", "json"):
        raise ValueError("expected csv or json")
    return value


def _resolve(args: argparse.Namespace, config: dict, key: str, default, convert=str):
    """Flag if given, else the config-file value through `convert`, else the default.

    Flags arrive typed from argparse; a config value of the wrong type is
    a config error naming its key.  A null config value counts as unset.
    """
    flag = getattr(args, key.replace("-", "_"), None)
    if flag is not None:
        return flag
    value = config.get(key)
    if value is None:
        return default
    try:
        return convert(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise CliError(f"config key {key!r}: bad value {value!r} ({exc})") from exc


def _timestamp() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def _write_text(out: str | None, text: str) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8")


def _csv_comment_block(config: dict, timestamp: str | None) -> str:
    lines = [f"# config={json.dumps(config, sort_keys=True)}"]
    if timestamp is not None:
        lines.append(f"# generated={timestamp}")
    return "\n".join(lines) + "\n"


def _json_artifact(config: dict, payload: dict, timestamp: str | None) -> str:
    doc = {"config": config}
    if timestamp is not None:
        doc["generated"] = timestamp
    doc.update(payload)
    return json.dumps(doc, indent=2, sort_keys=False) + "\n"


# ---------------------------------------------------------------------------
# data CSV I/O


def _parse_table(lines: list[str], linenos: list[int], path: str) -> np.ndarray:
    """Parse comma-separated data lines into an (n, p) float64 array.

    Cells read as Python's float() reads them.  numpy's C reader parses
    the table; when it refuses it (a non-numeric cell, a ragged row, or a
    cell such as ``1_0`` that float() accepts and numpy does not), the
    per-cell float() loop parses the same lines, so it either returns
    float()'s values or raises the error naming the file row (`linenos`)
    and column.
    """
    if not lines:
        return np.empty((0, 0))  # np.loadtxt warns on empty input
    try:
        return np.loadtxt(lines, delimiter=",", comments=None, dtype=np.float64, ndmin=2)
    except ValueError:
        pass
    rows: list[list[float]] = []
    width: int | None = None
    for line, lineno in zip(lines, linenos):
        parsed: list[float] = []
        for col, cell in enumerate((c.strip() for c in line.split(",")), start=1):
            try:
                parsed.append(float(cell))
            except ValueError:
                raise CliError(
                    f"{path}: non-numeric value {cell!r} at row {lineno}, column {col}"
                ) from None
        if width is None:
            width = len(parsed)
        elif len(parsed) != width:
            raise CliError(
                f"{path}: row {lineno} has {len(parsed)} columns, expected {width}"
            )
        rows.append(parsed)
    return np.array(rows, dtype=np.float64)


def _is_number(cell: str) -> bool:
    try:
        float(cell.strip())
    except ValueError:
        return False
    return True


def load_data_csv(path: str) -> SphericalSample:
    """Read an observations-by-rows CSV, normalizing near-unit rows.

    Blank lines and lines starting with ``#`` are skipped; the first
    remaining line is a header, and dropped, when one of its cells is not
    a number.  Errors name the file row.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise CliError(f"cannot read input file {path}: {exc}") from exc

    lines: list[str] = []
    linenos: list[int] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if stripped and not stripped.startswith("#"):
            lines.append(stripped)
            linenos.append(lineno)
    if lines and not all(_is_number(cell) for cell in lines[0].split(",")):
        del lines[0], linenos[0]  # header line

    data = _parse_table(lines, linenos, path)
    if len(data) < 3:
        raise CliError(f"{path}: need at least 3 observations, found {len(data)}")
    if not np.isfinite(data).all():
        r, c = np.argwhere(~np.isfinite(data))[0]
        raise CliError(
            f"{path}: non-finite value {data[r, c]} at row {linenos[r]}, column {c + 1}"
        )
    # scale each row by its largest |x| first, so norms of finite rows
    # neither overflow (1e200) nor underflow to zero (1e-200)
    scale = np.maximum(data.max(axis=1), -data.min(axis=1))  # max |x| with no n x p temporary
    if np.any(scale == 0.0):
        bad = int(np.flatnonzero(scale == 0.0)[0])
        raise CliError(
            f"{path}: observation {bad + 1} is a zero vector (row {linenos[bad]})"
        )
    data = data / scale[:, None]
    norms = np.linalg.norm(data, axis=1)
    with np.errstate(over="ignore"):
        deviation = np.abs(scale * norms - 1.0).max()
    if deviation > NORMALIZE_NOTICE_TOL:
        print(
            f"notice: input rows deviate from unit norm by up to "
            f"{deviation:.3e}; renormalizing",
            file=sys.stderr,
        )
    data /= norms[:, None]
    return SphericalSample.from_rows(data)


def _fmt17(x: float) -> str:
    return format(float(x), ".17g")


def write_data_csv(path: str | None, sample: SphericalSample, config: dict) -> None:
    lines = [_csv_comment_block(config, timestamp=None).rstrip("\n")]
    for row in sample.rows:
        lines.append(",".join(_fmt17(v) for v in row))
    _write_text(path, "\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# model / marginal flags


def parse_marginal(spec: str) -> HeavyTailMarginal:
    spec = spec.strip().lower()
    if spec == "cauchy":
        return HeavyTailMarginal.cauchy()
    if spec in ("chisq1", "centered-chisq1", "centered_chisq1"):
        return HeavyTailMarginal.centered_chisq1()
    for prefix, maker in (("t", HeavyTailMarginal.student_t), ("pareto", HeavyTailMarginal.pareto)):
        if spec.startswith(prefix + ":") or spec.startswith(prefix + "="):
            try:
                return maker(float(spec[len(prefix) + 1 :]))
            except ValueError as exc:
                raise CliError(f"bad marginal spec {spec!r}: {exc}") from exc
    raise CliError(
        f"unknown marginal {spec!r}; expected cauchy, chisq1, t:<nu> or pareto:<alpha>"
    )


def marginal_label(m: HeavyTailMarginal) -> str:
    if m.kind == "cauchy":
        return "cauchy"
    if m.kind == "centered_chisq1":
        return "chisq1"
    if m.kind == "student_t":
        return f"t:{m.param:g}"
    return f"pareto:{m.param:g}"


def build_model(model: str, marginal: str | None, kappa: float) -> AlternativeModel:
    model = model.strip().lower()
    if model == "uniform":
        return AlternativeModel.uniform()
    if model in ("alpha-spherical", "alpha_spherical", "alpha"):
        if marginal is None:
            raise CliError("--model alpha-spherical needs --marginal")
        return AlternativeModel.alpha_spherical(parse_marginal(marginal))
    if model == "fvml":
        if not 0.0 <= kappa < math.inf:
            raise CliError(f"--kappa must be finite and >= 0, got {kappa}")
        return AlternativeModel.fvml(kappa)
    raise CliError(f"unknown model {model!r}; expected uniform, alpha-spherical or fvml")


def parse_scenarios(spec: str) -> tuple[tuple[int, int], ...]:
    out = []
    for token in spec.split(","):
        token = token.strip().lower()
        try:
            n_str, p_str = token.split("x")
            out.append((int(n_str), int(p_str)))
        except ValueError as exc:
            raise CliError(
                f"bad scenario token {token!r}; expected <n>x<p> like 100x120"
            ) from exc
    if not out:
        raise CliError("empty scenario list")
    return tuple(out)


# ---------------------------------------------------------------------------
# subcommands


def cmd_test(args: argparse.Namespace) -> int:
    config_file = _load_config(args.config)
    level = _resolve(args, config_file, "level", 0.05, float)
    fmt = _resolve(args, config_file, "format", "csv", _output_format)
    sample = load_data_csv(args.input)
    try:
        outcomes = run_all_tests(sample, level)
    except ValueError as exc:
        raise CliError(str(exc)) from exc

    config = {
        "command": "test",
        "input": args.input,
        "n": sample.n,
        "p": sample.p,
        "level": level,
        "format": fmt,
    }
    ts = _timestamp()
    if fmt == "json":
        payload = {
            "outcomes": [
                {
                    "test": o.test,
                    "statistic": o.statistic,
                    "p_value": o.p_value,
                    "reject": o.reject,
                    "level": o.level,
                }
                for o in outcomes
            ]
        }
        _write_text(args.out, _json_artifact(config, payload, ts))
    else:
        lines = [_csv_comment_block(config, ts).rstrip("\n")]
        lines.append("test,statistic,p_value,reject,level")
        for o in outcomes:
            lines.append(
                f"{o.test},{o.statistic!r},{o.p_value!r},"
                f"{'true' if o.reject else 'false'},{o.level!r}"
            )
        _write_text(args.out, "\n".join(lines) + "\n")
    return 0


def cmd_sample(args: argparse.Namespace) -> int:
    config_file = _load_config(args.config)
    n = _resolve(args, config_file, "n", 100, _integer)
    p = _resolve(args, config_file, "p", 100, _integer)
    seed = _resolve(args, config_file, "seed", 0, _integer)
    kappa = _resolve(args, config_file, "kappa", 0.0, float)
    model_name = _resolve(args, config_file, "model", "uniform")
    marginal = _resolve(args, config_file, "marginal", None)
    model = build_model(model_name, marginal, kappa)
    try:
        sample = sample_from_model(model, n, p, SeedSpec(seed))
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    config = {
        "command": "sample",
        "model": model_name,
        "marginal": marginal,
        "kappa": kappa,
        "n": n,
        "p": p,
        "seed": seed,
    }
    write_data_csv(args.out, sample, config)
    return 0


def _rate_table(
    scenarios: tuple[tuple[int, int], ...],
    models: list[tuple[str | None, AlternativeModel]],
    reps: int,
    level: float,
    seed: int,
    threads: int,
) -> list[dict]:
    """Rejection-rate grid; rows are test (x marginal), columns scenarios."""
    columns = [f"n{n}_p{p}" for n, p in scenarios]
    cells: dict[tuple[str, str | None, str], float] = {}
    try:
        # build every plan first, so a bad cell fails before any cell runs
        plans = {
            (label, column): ExperimentPlan(
                n=n, p=p, model=model, replications=reps, level=level, master_seed=seed
            )
            for label, model in models
            for (n, p), column in zip(scenarios, columns)
        }
        for (label, column), plan in plans.items():
            result = run_rejection_experiment(plan, threads=threads)
            for test, agg in result.per_test.items():
                cells[(test, label, column)] = agg.rate
    except ValueError as exc:  # bad reps, level, scenario or thread count
        raise CliError(str(exc)) from exc
    rows = []
    for test in ("fisher", "rayleigh", "packing", "bingham"):
        for label, _model in models:
            row: dict = {"test": test}
            if label is not None:
                row["marginal"] = label
            for column in columns:
                row[column] = cells[(test, label, column)]
            rows.append(row)
    return rows


def _emit_table(args: argparse.Namespace, rows: list[dict], config: dict) -> None:
    ts = _timestamp()
    if config["format"] == "json":
        _write_text(args.out, _json_artifact(config, {"rows": rows}, ts))
        return
    header = list(rows[0].keys())
    lines = [_csv_comment_block(config, ts).rstrip("\n"), ",".join(header)]
    for row in rows:
        lines.append(
            ",".join(
                repr(v) if isinstance(v, float) else str(v) for v in row.values()
            )
        )
    _write_text(args.out, "\n".join(lines) + "\n")


def cmd_size_table(args: argparse.Namespace) -> int:
    config_file = _load_config(args.config)
    reps = _resolve(args, config_file, "reps", 2000, _integer)
    level = _resolve(args, config_file, "level", 0.05, float)
    seed = _resolve(args, config_file, "seed", 0, _integer)
    threads = _resolve(args, config_file, "threads", 0, _integer)
    fmt = _resolve(args, config_file, "format", "csv", _output_format)
    scenarios_spec = _resolve(args, config_file, "scenarios", None)
    scenarios = (
        parse_scenarios(scenarios_spec) if scenarios_spec else TABLE1_SCENARIOS
    )
    rows = _rate_table(
        scenarios, [(None, AlternativeModel.uniform())], reps, level, seed, threads
    )
    config = {
        "command": "size-table",
        "scenarios": ",".join(f"{n}x{p}" for n, p in scenarios),
        "reps": reps,
        "level": level,
        "seed": seed,
        "threads": threads,
        "format": fmt,
    }
    _emit_table(args, rows, config)
    return 0


def cmd_power_table(args: argparse.Namespace) -> int:
    config_file = _load_config(args.config)
    reps = _resolve(args, config_file, "reps", 2000, _integer)
    level = _resolve(args, config_file, "level", 0.05, float)
    seed = _resolve(args, config_file, "seed", 0, _integer)
    threads = _resolve(args, config_file, "threads", 0, _integer)
    fmt = _resolve(args, config_file, "format", "csv", _output_format)
    scenarios_spec = _resolve(args, config_file, "scenarios", None)
    scenarios = (
        parse_scenarios(scenarios_spec) if scenarios_spec else TABLE1_SCENARIOS
    )
    models = [
        (marginal_label(m), AlternativeModel.alpha_spherical(m)) for m in POWER_MARGINALS
    ]
    rows = _rate_table(scenarios, models, reps, level, seed, threads)
    config = {
        "command": "power-table",
        "scenarios": ",".join(f"{n}x{p}" for n, p in scenarios),
        "marginals": [label for label, _ in models],
        "reps": reps,
        "level": level,
        "seed": seed,
        "threads": threads,
        "format": fmt,
    }
    _emit_table(args, rows, config)
    return 0


def cmd_diagnose(args: argparse.Namespace) -> int:
    if args.kind not in DIAGNOSE_KINDS:
        raise CliError(
            f"unknown diagnostic {args.kind!r}; valid kinds: {', '.join(DIAGNOSE_KINDS)}"
        )
    config_file = _load_config(args.config)
    n = _resolve(args, config_file, "n", 100, _integer)
    p = _resolve(args, config_file, "p", 100, _integer)
    reps = _resolve(args, config_file, "reps", 2000, _integer)
    level = _resolve(args, config_file, "level", 0.05, float)
    seed = _resolve(args, config_file, "seed", 0, _integer)
    threads = _resolve(args, config_file, "threads", 0, _integer)
    marginal_spec = _resolve(args, config_file, "marginal", "cauchy")
    tau = _resolve(args, config_file, "tau", 1.0, float)
    if n < 3:
        raise CliError(f"diagnostics need --n >= 3, got {n}")

    try:
        if args.kind == "rayleigh-blindness":
            report = run_rayleigh_blindness_diagnostic(
                n, p, parse_marginal(marginal_spec), reps, seed, level, threads
            )
        elif args.kind == "bingham-scaling":
            report = run_bingham_scaling_diagnostic(
                n, p, parse_marginal(marginal_spec), reps, seed, level, threads
            )
        elif args.kind == "packing-lln":
            report = run_packing_lln_diagnostic(
                n, p, parse_marginal(marginal_spec), reps, seed, level, threads
            )
        elif args.kind == "independence":
            report = run_independence_diagnostic(n, p, reps, level, seed, threads)
        else:
            report = run_fvml_packing_blindness(n, p, tau, reps, seed, level, threads)
    except ValueError as exc:
        raise CliError(str(exc)) from exc

    config = {
        "command": "diagnose",
        "kind": args.kind,
        "n": n,
        "p": p,
        "marginal": marginal_spec,
        "tau": tau,
        "reps": reps,
        "level": level,
        "seed": seed,
        "threads": threads,
    }
    payload = {"kind": report.kind, "metrics": report.metrics}
    _write_text(args.out, _json_artifact(config, payload, _timestamp()))
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sphereuni",
        description="Uniformity tests on high-dimensional spheres",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", help="flat JSON config file; flags override it")
        p.add_argument("--out", help="output path (default: stdout)")

    t = sub.add_parser("test", help="run the four tests on a data CSV")
    t.add_argument("input", help="CSV with one observation per row")
    t.add_argument("--level", type=float)
    t.add_argument("--format", choices=("csv", "json"))
    add_common(t)
    t.set_defaults(func=cmd_test)

    s = sub.add_parser("sample", help="write a sample CSV from a model")
    s.add_argument("--model", choices=("uniform", "alpha-spherical", "fvml"))
    s.add_argument("--marginal", help="cauchy | chisq1 | t:<nu> | pareto:<alpha>")
    s.add_argument("--kappa", type=float)
    s.add_argument("--n", type=int)
    s.add_argument("--p", type=int)
    s.add_argument("--seed", type=int)
    add_common(s)
    s.set_defaults(func=cmd_sample)

    for name, fn, help_text in (
        ("size-table", cmd_size_table, "empirical sizes under uniformity"),
        ("power-table", cmd_power_table, "empirical power under heavy-tailed models"),
    ):
        tp = sub.add_parser(name, help=help_text)
        tp.add_argument("--scenarios", help="comma-separated <n>x<p> pairs")
        tp.add_argument("--reps", type=int)
        tp.add_argument("--level", type=float)
        tp.add_argument("--seed", type=int)
        tp.add_argument("--threads", type=int)
        tp.add_argument("--format", choices=("csv", "json"))
        add_common(tp)
        tp.set_defaults(func=fn)

    d = sub.add_parser("diagnose", help="run one asymptotic diagnostic")
    d.add_argument("kind", help=" | ".join(DIAGNOSE_KINDS))
    d.add_argument("--n", type=int)
    d.add_argument("--p", type=int)
    d.add_argument("--marginal")
    d.add_argument("--tau", type=float)
    d.add_argument("--reps", type=int)
    d.add_argument("--level", type=float)
    d.add_argument("--seed", type=int)
    d.add_argument("--threads", type=int)
    add_common(d)
    d.set_defaults(func=cmd_diagnose)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception:
        traceback.print_exc()
        return 1


if __name__ == "__main__":
    sys.exit(main())
