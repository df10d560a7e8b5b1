"""The streaming CSV loader against the whole-text loader it replaced.

`whole_text_load_data_csv` below is the earlier loader, kept verbatim as
the oracle: it read the whole file, split it with str.splitlines and
handed the list of lines to numpy's C reader.  For every file that does
not start with a UTF-8 byte-order mark (which the earlier loader read as
part of the first cell), the streaming loader must return the same rows
bit for bit, print the same notice, and fail with the same message and
exit code.
"""

import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import sphereuni.cli as cli
from sphereuni.cli import NORMALIZE_NOTICE_TOL, CliError, load_data_csv
from sphereuni.sampling import SphericalSample

# ---------------------------------------------------------------------------
# the oracle: the whole-text loader, verbatim


def _parse_table(lines: list[str], linenos: list[int], path: str) -> np.ndarray:
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


def whole_text_load_data_csv(path: str) -> SphericalSample:
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


# ---------------------------------------------------------------------------
# inputs

# every line end str.splitlines knows; the file reader itself splits on the first three
LINE_ENDS = ["\n", "\r\n", "\r", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]

NUMBER_CELL = st.one_of(
    st.sampled_from(["0", "1", "-2", "0.5", "1e200", "1e-200", "5e-324", "1_0", "nan", "1e999"]),
    st.floats(allow_nan=False).map(repr),
)
CELL = st.one_of(
    NUMBER_CELL,
    NUMBER_CELL.map(lambda cell: f" {cell}\t"),
    st.sampled_from(["x", "", "oops", "# not a comment"]),
)
LINE = st.one_of(
    st.lists(CELL, min_size=1, max_size=3).map(",".join),
    st.sampled_from(["", "   ", "#", "# comment", "x,y", "x1,x2,x3"]),
)


@st.composite
def numeric_rows(draw):
    """Rectangular numeric rows, most of which get past parsing."""
    width = draw(st.integers(1, 3))
    return [",".join(row) for row in draw(st.lists(
        st.lists(NUMBER_CELL, min_size=width, max_size=width), min_size=3, max_size=8))]


@st.composite
def csv_files(draw):
    """File bytes: lines joined by any mix of line ends, sometimes with bytes that
    are not UTF-8, never starting with a byte-order mark."""
    lines = draw(st.one_of(
        numeric_rows(),
        st.tuples(st.sampled_from(["x,y", "# c", ""]), numeric_rows()).map(
            lambda t: [t[0], *t[1]]),
        st.lists(LINE, max_size=10),
    ))
    text = "".join(line + draw(st.sampled_from(LINE_ENDS)) for line in lines)
    if draw(st.booleans()):
        text = text.rstrip("".join(LINE_ENDS))  # no line end after the last line
    data = text.encode("utf-8")
    if draw(st.integers(0, 9)) == 0:
        at = draw(st.integers(0, len(data)))
        data = data[:at] + b"\xe9" + data[at:]
    return data.lstrip(b"\xef\xbb\xbf")


def outcome(load, path: str, capsys):
    """What a loader gives for `path`: its rows' bits or its error, and its stderr."""
    try:
        rows = load(path).rows
        result = ("rows", rows.shape, rows.tobytes())
    except Exception as exc:  # noqa: BLE001 - the oracle's type and message are the spec
        result = (type(exc).__name__, str(exc))
    return result, capsys.readouterr().err


def exit_and_stderr(load, path: str, monkeypatch, capsys):
    """`sphereuni test`'s exit code and stderr with `load` as its loader."""
    with monkeypatch.context() as patch:
        patch.setattr(cli, "load_data_csv", load)
        code = cli.main(["test", path, "--format", "json"])
    return code, capsys.readouterr().err


# ---------------------------------------------------------------------------
# tests


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=csv_files())
def test_streaming_loader_matches_whole_text_loader(tmp_path, capsys, monkeypatch, data):
    path = tmp_path / "data.csv"
    path.write_bytes(data)
    assert outcome(load_data_csv, str(path), capsys) == outcome(
        whole_text_load_data_csv, str(path), capsys)
    assert exit_and_stderr(load_data_csv, str(path), monkeypatch, capsys) == exit_and_stderr(
        whole_text_load_data_csv, str(path), monkeypatch, capsys)


@pytest.mark.parametrize("comment", range(8185, 8197))
@pytest.mark.parametrize("end", ["\r\n", "\r", "\u2028"])
def test_line_end_across_a_read_chunk(tmp_path, capsys, comment, end):
    # the reader decodes 8 KiB at a time; a line end split across two reads, or the
    # \r and \n of one \r\n split apart, must still end one row
    path = tmp_path / "data.csv"
    lines = ["#" + "x" * comment, "1,0", "0,0", "0,1", "1,1"]
    path.write_bytes(end.join(lines).encode("utf-8"))
    assert outcome(load_data_csv, str(path), capsys) == outcome(
        whole_text_load_data_csv, str(path), capsys)
    with pytest.raises(CliError, match=r"observation 2 is a zero vector \(row 3\)"):
        load_data_csv(str(path))
