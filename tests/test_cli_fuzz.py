"""Property tests: no CSV text or flat JSON config makes the CLI crash.

Every input must end in exit 0 or the usage/data exit 2, never the
internal-error exit 1 with a traceback.  Numbers are kept small enough
that a config cannot ask for a large sample or a long run.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sphereuni.cli import DIAGNOSE_KINDS, OPTIONS, CliError, _parse_table, load_data_csv, main

SETTINGS = settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)

# text that survives a UTF-8 round trip (no lone surrogates)
TEXT = st.text(st.characters(blacklist_categories=("Cs",)), max_size=12)

NUMBER_CELL = st.one_of(
    st.sampled_from(["0", "1", "-2", "0.5", "1e200", "-1e200", "1e-200", "5e-324", "1e308"]),
    st.integers(-5, 5).map(str),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.sampled_from(["1e999", "nan", "-0.0", "1_0", "+1", "1E5"]),
)
# float() reads a cell with whitespace around it, and so must the loader
PADDED_CELL = st.one_of(NUMBER_CELL, NUMBER_CELL.map(lambda cell: f" {cell}\t"))
CELL = st.one_of(NUMBER_CELL, TEXT.filter(lambda t: "," not in t and "\n" not in t))
LINE = st.one_of(
    st.lists(CELL, min_size=1, max_size=4).map(",".join),
    st.just(""),
    TEXT.map(lambda t: "#" + t),
)


@st.composite
def numeric_tables(draw):
    """Rectangular numeric CSVs: they get past parsing, so the norms are exercised."""
    width = draw(st.integers(1, 3))
    rows = draw(st.lists(st.lists(PADDED_CELL, min_size=width, max_size=width),
                         min_size=3, max_size=8))
    return "\n".join(",".join(row) for row in rows)


CSV_TEXT = st.one_of(
    numeric_tables(),
    st.lists(LINE, max_size=12).map("\n".join),
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=60),
)

SCALAR = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-5, 60),
    st.floats(-1e3, 1e3),
    st.sampled_from([math.nan, math.inf, -math.inf, 2.5, 1e300]),
    TEXT,
    st.sampled_from(["uniform", "fvml", "alpha-spherical", "cauchy", "t:1.5", "json", "csv",
                     "t:nan", "t:inf", "pareto:nan"]),
)
VALUE = st.one_of(SCALAR, st.lists(SCALAR, max_size=2))


def config_docs(keys):
    return st.dictionaries(st.one_of(st.sampled_from(keys), TEXT), VALUE, max_size=6)


def run(argv, capsys):
    code = main(argv)
    err = capsys.readouterr().err
    assert code in (0, 2), err
    assert "Traceback" not in err
    return code


@SETTINGS
@given(text=CSV_TEXT)
def test_csv_parser_returns_sample_or_usage_error(tmp_path, capsys, text):
    data = tmp_path / "fuzz.csv"
    data.write_text(text, encoding="utf-8")
    try:
        sample = load_data_csv(str(data))
    except CliError:
        sample = None
    if sample is not None:
        assert sample.n >= 3
    assert run(["test", str(data), "--out", str(tmp_path / "out.csv")], capsys) == (
        0 if sample is not None else 2
    )


@SETTINGS
@given(text=numeric_tables())
def test_parse_table_matches_float_per_cell(text):
    # bit patterns, so that -0.0 and the NaN positions count
    lines = [line.strip() for line in text.splitlines()]
    parsed = _parse_table(lines, list(range(1, len(lines) + 1)), "table.csv")
    expected = np.array([[float(c.strip()) for c in line.split(",")] for line in lines])
    assert parsed.shape == expected.shape
    assert np.array_equal(parsed.view(np.uint64), expected.view(np.uint64))


@SETTINGS
@given(doc=config_docs(["n", "p", "seed", "kappa", "model", "marginal"]))
def test_sample_config_never_crashes(tmp_path, capsys, doc):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc), encoding="utf-8")
    run(["sample", "--config", str(cfg), "--out", str(tmp_path / "s.csv")], capsys)


@SETTINGS
@given(doc=config_docs(["reps", "level", "seed", "threads", "format", "scenarios"]))
def test_size_table_config_never_crashes(tmp_path, capsys, doc):
    # reps and scenarios come from flags, which win, so every run stays tiny
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc), encoding="utf-8")
    run(["size-table", "--reps", "2", "--scenarios", "5x3", "--config", str(cfg),
         "--out", str(tmp_path / "t.csv")], capsys)


@pytest.mark.parametrize("kind", DIAGNOSE_KINDS)
@SETTINGS
@given(doc=config_docs([option.name for option in OPTIONS if "diagnose" in option.commands]))
def test_diagnose_config_never_crashes(tmp_path, capsys, kind, doc):
    # n, p and reps come from flags, which win, so every run stays tiny
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc), encoding="utf-8")
    run(["diagnose", kind, "--n", "5", "--p", "3", "--reps", "2", "--config", str(cfg),
         "--out", str(tmp_path / "d.json")], capsys)


@pytest.mark.parametrize("text", ["[1, 2]", "NaN", '"n"', "{", "é"])
def test_non_object_config_is_exit_2(tmp_path, capsys, text):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text, encoding="utf-8")
    assert run(["sample", "--config", str(cfg)], capsys) == 2
