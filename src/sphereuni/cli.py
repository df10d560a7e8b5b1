"""Command-line front end.

    sphereuni test data.csv --level 0.05
    sphereuni sample --model alpha-spherical --marginal cauchy --n 100 --p 50
    sphereuni size-table --reps 2000 --out table1.csv
    sphereuni power-table --reps 2000 --format json
    sphereuni diagnose independence --n 100 --p 100

Every command accepts --config pointing at a flat JSON document whose
keys mirror the flags; explicit flags win.  Both come from one table,
OPTIONS, which also orders the fully resolved config that is embedded in
every output artifact ("# config=" comment lines in CSV, a "config" field
in JSON), so any artifact can be reproduced from itself.
Exit codes: 0 success, 2 usage/config/data error, 1 internal error.
"""

from __future__ import annotations

import argparse
import array
import dataclasses
import itertools
import json
import math
import sys
import traceback
import warnings
from collections.abc import Callable, Iterable, Iterator
from datetime import datetime, timezone
from pathlib import Path
from typing import NamedTuple

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
    _row_norms,
    sample_from_model,
)
from .stats import run_all_tests

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
    """int() that refuses to truncate: 3.0 and "3" pass, 2.5, inf and true do not."""
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ValueError(f"{value!r} is not an integer")
    return int(value)


def _real(value) -> float:
    """float() that refuses a JSON boolean: 1, 0.5 and "0.5" pass, true does not."""
    if isinstance(value, bool):
        raise ValueError(f"{value!r} is not a number")
    return float(value)


class Option(NamedTuple):
    """One row of OPTIONS: a `--name` flag and the config key of the same name.
    `convert` is the only conversion of either: the flag's text or the config value."""

    name: str
    convert: Callable  # -> the option's value; TypeError, ValueError or CliError refuses
    default: object
    commands: tuple[str, ...]
    help: str | None = None


def _choice(name: str, choices: tuple[str, ...], default: str, commands: tuple[str, ...]) -> Option:
    """A row whose flag and config key both accept exactly `choices`."""

    def convert(value) -> str:
        if value not in choices:
            raise ValueError(f"expected one of {', '.join(choices)}")
        return value

    return Option(name, convert, default, commands, " | ".join(choices))


def _marginal(value) -> str:
    """A marginal spec that `parse_marginal` accepts, kept as written."""
    if not isinstance(value, str):
        raise TypeError(f"{value!r} is not a marginal spec")
    parse_marginal(value)
    return value


def _scenarios(value) -> str:
    """Comma-separated <n>x<p> pairs that `parse_scenarios` accepts, normalized."""
    if not isinstance(value, str):
        raise TypeError(f"{value!r} is not a list of scenarios")
    return ",".join(f"{n}x{p}" for n, p in parse_scenarios(value))


_TABLES = ("size-table", "power-table")
_MARGINAL_HELP = "cauchy | chisq1 | t:<nu> | pareto:<alpha>"

# Row order is the order of the options in every artifact's `config`.
OPTIONS = (
    Option("scenarios", _scenarios, ",".join(f"{n}x{p}" for n, p in TABLE1_SCENARIOS), _TABLES,
           "comma-separated <n>x<p> pairs"),
    Option("n", _integer, 100, ("sample", "diagnose")),
    Option("p", _integer, 100, ("sample", "diagnose")),
    _choice("model", ("uniform", "alpha-spherical", "fvml"), "uniform", ("sample",)),
    Option("marginal", _marginal, None, ("sample",), _MARGINAL_HELP),
    Option("marginal", _marginal, "cauchy", ("diagnose",), _MARGINAL_HELP),
    Option("kappa", _real, 0.0, ("sample",)),
    Option("tau", _real, 1.0, ("diagnose",)),
    Option("reps", _integer, 2000, (*_TABLES, "diagnose")),
    Option("level", _real, 0.05, ("test", *_TABLES, "diagnose")),
    Option("seed", _integer, 0, ("sample", *_TABLES, "diagnose")),
    Option("threads", _integer, 0, (*_TABLES, "diagnose")),
    _choice("format", ("csv", "json"), "csv", ("test", *_TABLES)),
)


def _resolve_config(args: argparse.Namespace) -> dict:
    """The resolved config of `args.command`: "command", then its OPTIONS rows in order.

    Each value is the flag's text if given, else the config-file value,
    through the row's converter; a null config value counts as unset and
    gives the default.  A refused value is a CliError naming `--<name>` or
    `config key '<name>'`.  An unwritable `--out` is refused here, before
    the command does any work.
    """
    config_file = _load_config(args.config)
    config = {"command": args.command}
    for option in OPTIONS:
        if args.command not in option.commands:
            continue
        value, where = getattr(args, option.name), f"--{option.name}"
        if value is None:
            value, where = config_file.get(option.name), f"config key {option.name!r}"
        if value is None:
            config[option.name] = option.default
            continue
        try:
            config[option.name] = option.convert(value)
        except (TypeError, ValueError, OverflowError, CliError) as exc:
            raise CliError(f"{where}: bad value {value!r} ({exc})") from exc
    _check_out(args.out)
    return config


def _check_out(out: str | None) -> None:
    """Refuse an `--out` that cannot name a file before the command does any work:
    a directory, or a path whose parent is not a directory.  `_write_text`
    still reports what this cannot see, such as a read-only directory."""
    if out is None:
        return
    path = Path(out)
    if path.is_dir():
        reason = "is a directory"
    elif not path.parent.is_dir():
        reason = f"{path.parent} is not a directory"
    else:
        return
    raise CliError(f"cannot write output file {out}: {reason}")


def _insert_after(config: dict, key: str, **fields) -> dict:
    """`config` with `fields`, which the command derives, placed right after `key`."""
    out = {}
    for k, v in config.items():
        out[k] = v
        if k == key:
            out.update(fields)
    return out


def _timestamp() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def _write_text(out: str | None, text: str) -> None:
    if out is None:
        sys.stdout.write(text)
        return
    try:
        Path(out).write_text(text, encoding="utf-8")
    except OSError as exc:  # a missing directory, or a directory named as the file
        raise CliError(f"cannot write output file {out}: {exc}") from exc


def _write_csv(out: str | None, config: dict, lines: Iterable[str], generated: bool = True) -> None:
    """A CSV artifact: the config comment line, a timestamp one if `generated`, then `lines`."""
    head = [f"# config={json.dumps(config, sort_keys=True)}"]
    if generated:
        head.append(f"# generated={_timestamp()}")
    _write_text(out, "\n".join([*head, *lines]) + "\n")


def _write_json(out: str | None, config: dict, payload: dict) -> None:
    doc = {"config": config, "generated": _timestamp(), **payload}
    _write_text(out, json.dumps(doc, indent=2) + "\n")


def _csv_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return repr(value) if isinstance(value, float) else str(value)


def _write_rows(out: str | None, config: dict, key: str, rows: list[dict]) -> None:
    """`rows` under `key` in a JSON artifact, or a CSV artifact headed by their keys."""
    if config["format"] == "json":
        _write_json(out, config, {key: rows})
    else:
        body = (",".join(_csv_cell(v) for v in row.values()) for row in rows)
        _write_csv(out, config, [",".join(rows[0]), *body])


# ---------------------------------------------------------------------------
# data CSV I/O


def _parse_table(lines: Iterable[str], linenos: list[int], path: str) -> np.ndarray:
    """Parse comma-separated data lines into an (n, p) float64 array, one float() per cell.

    `linenos[i]`, the file row of line i, need only be known once line i is
    read.  A non-numeric cell or a ragged row raises the error naming its
    row (and column) after the rest of `lines` is read, so that a byte that
    is not UTF-8 later in the file is reported instead.
    """
    values = array.array("d")
    width: int | None = None  # the first row's
    lines = iter(lines)  # so that the drain below goes on where the loop stopped
    try:
        for i, line in enumerate(lines):
            parsed: list[float] = []
            for col, cell in enumerate((c.strip() for c in line.split(",")), start=1):
                try:
                    parsed.append(float(cell))
                except ValueError:
                    raise CliError(
                        f"{path}: non-numeric value {cell!r} at row {linenos[i]}, column {col}"
                    ) from None
            if width is None:
                width = len(parsed)
            elif len(parsed) != width:
                raise CliError(
                    f"{path}: row {linenos[i]} has {len(parsed)} columns, expected {width}"
                )
            values.extend(parsed)
    except CliError:
        for _ in lines:
            pass
        raise
    if width is None:
        return np.empty((0, 0))
    return np.frombuffer(values, dtype=np.float64).reshape(-1, width)


def _loadtxt(lines: Iterator[str], linenos: list[int], path: str) -> np.ndarray:
    """`lines` through numpy's C reader; ValueError where it refuses a line."""
    first = next(lines, None)
    if first is None:
        return np.empty((0, 0))  # np.loadtxt warns on empty input
    lines = itertools.chain([first], lines)
    return np.loadtxt(lines, delimiter=",", comments=None, dtype=np.float64, ndmin=2)


def _is_number(cell: str) -> bool:
    try:
        float(cell.strip())
    except ValueError:
        return False
    return True


def _data_lines(file: Iterable[str], linenos: list[int]) -> Iterator[str]:
    """The data lines of `file`, stripped, appending each one's file row to `linenos`.

    Each line the file yields is split again with str.splitlines, so every
    line end it knows ends a row.  Blank lines and lines starting with
    ``#`` are skipped; the first remaining line is a header, and skipped
    too, when one of its cells is not a number.
    """
    lineno = 0
    first = True
    for text in file:
        for line in text.splitlines():
            lineno += 1
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            if first:
                first = False
                if not all(_is_number(cell) for cell in stripped.split(",")):
                    continue  # header line
            linenos.append(lineno)
            yield stripped


def _read_table(path: str, parse: Callable) -> tuple[np.ndarray, list[int]]:
    """`parse(lines, linenos, path)` over the file's data lines, streamed, and their
    file rows.  The only code that opens the data file.  A file that cannot be
    read is a CliError, as is one that is not UTF-8, naming the bad byte's offset."""
    linenos: list[int] = []
    try:
        with open(path, encoding="utf-8-sig") as f:
            return parse(_data_lines(f, linenos), linenos, path), linenos
    except OSError as exc:
        raise CliError(f"cannot read input file {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        # the streamed error counts from the start of its read chunk, not of the file
        try:
            Path(path).read_bytes().decode("utf-8-sig")
        except (OSError, UnicodeDecodeError) as whole:
            exc = whole
        raise CliError(f"cannot read input file {path}: {exc}") from exc


def load_data_csv(path: str) -> SphericalSample:
    """Read an observations-by-rows CSV, normalizing near-unit rows.

    Blank lines and lines starting with ``#`` are skipped; the first
    remaining line is a header, and dropped, when one of its cells is not
    a number.  A UTF-8 byte-order mark is dropped.  Errors name the file
    row.  The file streams into numpy's C reader; where that refuses a line,
    it streams again into `_parse_table`, whose errors name row and column.
    Besides the rows, the extra memory is a list of row numbers and a fixed
    scratch buffer.
    """
    try:
        data, linenos = _read_table(path, _loadtxt)
    except ValueError:
        data, linenos = _read_table(path, _parse_table)
    if len(data) < 3:
        raise CliError(f"{path}: need at least 3 observations, found {len(data)}")
    # scale each row by its largest |x| first, so norms of finite rows
    # neither overflow (1e200) nor underflow to zero (1e-200); max |x| with no
    # n x p temporary, and not finite exactly where the row holds inf or NaN
    scale = np.maximum(data.max(axis=1), -data.min(axis=1))
    if not np.isfinite(scale).all():
        r = int(np.flatnonzero(~np.isfinite(scale))[0])
        c = int(np.flatnonzero(~np.isfinite(data[r]))[0])
        raise CliError(
            f"{path}: non-finite value {data[r, c]} at row {linenos[r]}, column {c + 1}"
        )
    if np.any(scale == 0.0):
        bad = int(np.flatnonzero(scale == 0.0)[0])
        raise CliError(
            f"{path}: observation {bad + 1} is a zero vector (row {linenos[bad]})"
        )
    data /= scale[:, None]
    norms = _row_norms(data)
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
    """The model named by one of the `model` row's choices; an option it does not read is refused."""
    if marginal is not None and model != "alpha-spherical":
        raise CliError(f"--model {model} takes no --marginal")
    if kappa != 0.0 and model != "fvml":
        raise CliError(f"--model {model} takes no --kappa")
    if model == "uniform":
        return AlternativeModel.uniform()
    if model == "alpha-spherical":
        if marginal is None:
            raise CliError("--model alpha-spherical needs --marginal")
        return AlternativeModel.alpha_spherical(parse_marginal(marginal))
    if not 0.0 <= kappa < math.inf:
        raise CliError(f"--kappa must be finite and >= 0, got {kappa}")
    return AlternativeModel.fvml(kappa)


def parse_scenarios(spec: str) -> tuple[tuple[int, int], ...]:
    out = []
    for token in spec.split(","):
        token = token.strip().lower()
        try:
            n_str, p_str = token.split("x")
            n, p = int(n_str), int(p_str)
        except ValueError as exc:
            raise CliError(
                f"bad scenario token {token!r}; expected <n>x<p> like 100x120"
            ) from exc
        if (n, p) in out:
            raise CliError(f"scenario {n}x{p} is listed twice")
        out.append((n, p))
    return tuple(out)


# ---------------------------------------------------------------------------
# subcommands


def cmd_test(args: argparse.Namespace) -> int:
    config = _resolve_config(args)
    if not 0.0 < config["level"] < 1.0:  # before the data are read
        raise CliError("level must lie in (0, 1)")
    sample = load_data_csv(args.input)
    try:
        outcomes = run_all_tests(sample, config["level"])
    except ValueError as exc:
        raise CliError(str(exc)) from exc

    config = _insert_after(config, "command", input=args.input, n=sample.n, p=sample.p)
    _write_rows(args.out, config, "outcomes", [dataclasses.asdict(o) for o in outcomes])
    return 0


def cmd_sample(args: argparse.Namespace) -> int:
    config = _resolve_config(args)
    model = build_model(config["model"], config["marginal"], config["kappa"])
    try:
        sample = sample_from_model(model, config["n"], config["p"], SeedSpec(config["seed"]))
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    rows = (",".join(format(float(v), ".17g") for v in row) for row in sample.rows)
    _write_csv(args.out, config, rows, generated=False)
    return 0


def _rate_table(
    scenarios: tuple[tuple[int, int], ...],
    models: list[tuple[str | None, AlternativeModel]],
    config: dict,
) -> list[dict]:
    """Rejection-rate grid; rows are test (x marginal), columns scenarios."""
    columns = [f"n{n}_p{p}" for n, p in scenarios]
    cells: dict[tuple[str, str | None, str], float] = {}
    try:
        # build every plan first, so a bad cell fails before any cell runs
        plans = {
            (label, column): ExperimentPlan(
                n=n, p=p, model=model, replications=config["reps"], level=config["level"],
                master_seed=config["seed"],
            )
            for label, model in models
            for (n, p), column in zip(scenarios, columns)
        }
        for (label, column), plan in plans.items():
            result = run_rejection_experiment(plan, threads=config["threads"])
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


def cmd_table(args: argparse.Namespace) -> int:
    """size-table runs the uniform model, power-table each of POWER_MARGINALS."""
    config = _resolve_config(args)
    scenarios = parse_scenarios(config["scenarios"])
    if args.command == "size-table":
        models = [(None, AlternativeModel.uniform())]
    else:
        models = [
            (marginal_label(m), AlternativeModel.alpha_spherical(m)) for m in POWER_MARGINALS
        ]
        config = _insert_after(config, "scenarios", marginals=[label for label, _ in models])
    _write_rows(args.out, config, "rows", _rate_table(scenarios, models, config))
    return 0


# kind: (the options it reads that not every kind reads, its diagnostic, which
# takes their values, parsed, as positional arguments after n and p)
DIAGNOSTICS = {
    "rayleigh-blindness": (("marginal",), run_rayleigh_blindness_diagnostic),
    "bingham-scaling": (("marginal",), run_bingham_scaling_diagnostic),
    "packing-lln": (("marginal",), run_packing_lln_diagnostic),
    "independence": ((), run_independence_diagnostic),
    "fvml-blindness": (("tau",), run_fvml_packing_blindness),
}
DIAGNOSE_KINDS = tuple(DIAGNOSTICS)
# the OPTIONS rows of diagnose that some kinds read and others refuse
_KIND_OPTIONS = [o for o in OPTIONS if "diagnose" in o.commands
                 and any(o.name in reads for reads, _ in DIAGNOSTICS.values())]


def cmd_diagnose(args: argparse.Namespace) -> int:
    if args.kind not in DIAGNOSTICS:
        raise CliError(
            f"unknown diagnostic {args.kind!r}; valid kinds: {', '.join(DIAGNOSE_KINDS)}"
        )
    reads, run = DIAGNOSTICS[args.kind]
    config = _insert_after(_resolve_config(args), "command", kind=args.kind)
    for option in _KIND_OPTIONS:
        if option.name not in reads and config[option.name] != option.default:
            raise CliError(f"diagnose {args.kind} takes no --{option.name}")
    read = [parse_marginal(config[name]) if name == "marginal" else config[name] for name in reads]
    try:
        # each warning becomes one stderr line, not a source location and line
        with warnings.catch_warnings(record=True) as caught:
            report = run(
                config["n"], config["p"], *read, replications=config["reps"],
                master_seed=config["seed"], level=config["level"], threads=config["threads"],
            )
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    for warning in caught:
        print(f"warning: {warning.message}", file=sys.stderr)

    _write_json(args.out, config, {"kind": report.kind, "metrics": report.metrics})
    return 0


# ---------------------------------------------------------------------------
# parser

# name: (handler, help, positional argument and its help, if the command takes one)
COMMANDS = {
    "test": (cmd_test, "run the four tests on a data CSV",
             ("input", "CSV with one observation per row")),
    "sample": (cmd_sample, "write a sample CSV from a model", None),
    "size-table": (cmd_table, "empirical sizes under uniformity", None),
    "power-table": (cmd_table, "empirical power under heavy-tailed models", None),
    "diagnose": (cmd_diagnose, "run one asymptotic diagnostic",
                 ("kind", " | ".join(DIAGNOSE_KINDS))),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sphereuni",
        description="Uniformity tests on high-dimensional spheres",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, help_text, positional) in COMMANDS.items():
        cmd = sub.add_parser(name, help=help_text)
        if positional is not None:
            cmd.add_argument(positional[0], help=positional[1])
        for option in OPTIONS:
            if name in option.commands:
                cmd.add_argument(f"--{option.name}", help=option.help)
        cmd.add_argument("--config", help="flat JSON config file; flags override it")
        cmd.add_argument("--out", help="output path (default: stdout)")
        cmd.set_defaults(func=func)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (CliError, MemoryError) as exc:  # MemoryError: a size too large to allocate
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2
    except Exception:
        traceback.print_exc()
        return 1


if __name__ == "__main__":
    sys.exit(main())
