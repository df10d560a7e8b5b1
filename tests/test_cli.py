import json
import tracemalloc
import warnings

import numpy as np
import pytest

from sphereuni import cli
from sphereuni.cli import (
    DIAGNOSE_KINDS,
    _parse_table,
    load_data_csv,
    main,
    marginal_label,
    parse_marginal,
    parse_scenarios,
)
from sphereuni.sampling import HeavyTailMarginal, SeedSpec, sample_uniform_sphere
from sphereuni.stats import run_all_tests


def run_cli(*argv):
    return main(list(argv))


def strip_timestamp(text):
    return "\n".join(
        line for line in text.splitlines() if not line.startswith("# generated=")
    )


class TestParsers:
    def test_marginal_specs(self):
        assert parse_marginal("cauchy").kind == "cauchy"
        assert parse_marginal("chisq1").kind == "centered_chisq1"
        assert parse_marginal("t:1.5").param == 1.5
        assert parse_marginal("pareto:0.8").param == 0.8
        from sphereuni.cli import CliError

        with pytest.raises(CliError):
            parse_marginal("watson")
        with pytest.raises(CliError):
            parse_marginal("t:0")

    @pytest.mark.parametrize(
        "marginal, label",
        [(HeavyTailMarginal.cauchy(), "cauchy"), (HeavyTailMarginal.centered_chisq1(), "chisq1"),
         (HeavyTailMarginal.student_t(1.5), "t:1.5"), (HeavyTailMarginal.pareto(0.8), "pareto:0.8")],
        ids=["cauchy", "chisq1", "t", "pareto"],
    )
    def test_marginal_label_reads_back(self, marginal, label):
        assert marginal_label(marginal) == label
        assert parse_marginal(label) == marginal

    def test_scenarios(self):
        assert parse_scenarios("80x40, 100x120") == ((80, 40), (100, 120))
        from sphereuni.cli import CliError

        with pytest.raises(CliError):
            parse_scenarios("80by40")
        with pytest.raises(CliError, match="scenario 5x3 is listed twice"):
            parse_scenarios("5x3, 4x4, 05X3")


class TestSampleCommand:
    def test_uniform_round_trip_norms(self, tmp_path):
        out = tmp_path / "s.csv"
        assert run_cli("sample", "--model", "uniform", "--n", "5", "--p", "3",
                       "--seed", "7", "--out", str(out)) == 0
        sample = load_data_csv(str(out))
        assert sample.n == 5 and sample.p == 3
        assert np.abs(np.linalg.norm(sample.rows, axis=1) - 1.0).max() <= 1e-9

    def test_same_seed_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ("sample", "--model", "alpha-spherical", "--marginal", "cauchy",
                "--n", "20", "--p", "6", "--seed", "3")
        assert run_cli(*args, "--out", str(a)) == 0
        assert run_cli(*args, "--out", str(b)) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_embeds_config(self, tmp_path):
        out = tmp_path / "s.csv"
        run_cli("sample", "--n", "4", "--p", "2", "--model", "uniform",
                "--seed", "11", "--out", str(out))
        first = out.read_text().splitlines()[0]
        assert first.startswith("# config=")
        config = json.loads(first.removeprefix("# config="))
        assert config["seed"] == 11 and config["n"] == 4

    def test_alpha_spherical_feeds_test_command(self, tmp_path):
        data = tmp_path / "d.csv"
        run_cli("sample", "--model", "alpha-spherical", "--marginal", "cauchy",
                "--n", "100", "--p", "50", "--seed", "5", "--out", str(data))
        report = tmp_path / "r.json"
        assert run_cli("test", str(data), "--format", "json", "--out", str(report)) == 0
        doc = json.loads(report.read_text())
        assert len(doc["outcomes"]) == 4


class TestTestCommand:
    def test_uniform_fixture_keeps_null(self, tmp_path):
        data = tmp_path / "u.csv"
        run_cli("sample", "--model", "uniform", "--n", "100", "--p", "40",
                "--seed", "123", "--out", str(data))
        report = tmp_path / "out.json"
        assert run_cli("test", str(data), "--format", "json", "--out", str(report)) == 0
        doc = json.loads(report.read_text())
        assert all(o["p_value"] > 0.001 for o in doc["outcomes"])
        assert doc["config"]["n"] == 100

    def test_heavy_tail_combined_p_value_keeps_its_digits(self, tmp_path):
        # the packing p-value is about 1.5e-17; 1 - (1 - p)^3 used to print 0.0
        data = tmp_path / "c.csv"
        assert run_cli("sample", "--model", "alpha-spherical", "--marginal", "cauchy",
                       "--n", "100", "--p", "100", "--seed", "3", "--out", str(data)) == 0
        report = tmp_path / "out.json"
        assert run_cli("test", str(data), "--format", "json", "--out", str(report)) == 0
        p_values = {o["test"]: o["p_value"] for o in json.loads(report.read_text())["outcomes"]}
        c = p_values["packing"]
        assert c == pytest.approx(1.4921786280526775e-17, rel=1e-9)
        assert p_values["fisher"] == pytest.approx(3 * c - 3 * c**2 + c**3, rel=1e-12)

    def test_identical_rows_reject_everything(self, tmp_path):
        row = ",".join(["1.0"] + ["0.0"] * 19)
        data = tmp_path / "ident.csv"
        data.write_text("\n".join([row] * 20) + "\n")
        report = tmp_path / "out.json"
        assert run_cli("test", str(data), "--format", "json", "--out", str(report)) == 0
        doc = json.loads(report.read_text())
        assert all(o["reject"] for o in doc["outcomes"])

    def test_non_numeric_cell_location(self, tmp_path, capsys):
        lines = ["0.6,0.8", "1.0,0.0", "0.0,1.0", "0.6,0.8", "0.6,oops", "1.0,0.0"]
        data = tmp_path / "bad.csv"
        data.write_text("\n".join(lines) + "\n")
        assert run_cli("test", str(data)) == 2
        err = capsys.readouterr().err
        assert "row 5, column 2" in err

    @pytest.mark.parametrize("cell", ["inf", "-inf", "nan", "1e999"])
    def test_non_finite_cell_location(self, tmp_path, capsys, cell):
        data = tmp_path / "inf.csv"
        data.write_text(f"x,y\n1.0,0.0\n0.0,1.0\n0.6,{cell}\n")
        assert run_cli("test", str(data)) == 2
        err = capsys.readouterr().err
        assert "non-finite" in err and "row 4, column 2" in err

    def test_unreadable_file(self, tmp_path):
        assert run_cli("test", str(tmp_path / "missing.csv")) == 2

    def test_too_few_rows(self, tmp_path):
        data = tmp_path / "two.csv"
        data.write_text("1.0,0.0\n0.0,1.0\n")
        assert run_cli("test", str(data)) == 2

    def test_header_detected(self, tmp_path):
        data = tmp_path / "h.csv"
        data.write_text("x1,x2\n1.0,0.0\n0.0,1.0\n0.6,0.8\n")
        sample = load_data_csv(str(data))
        assert sample.n == 3

    def test_normalization_notice(self, tmp_path, capsys):
        data = tmp_path / "scaled.csv"
        data.write_text("3.0,0.0\n0.0,3.0\n1.8,2.4\n")
        sample = load_data_csv(str(data))
        assert "renormaliz" in capsys.readouterr().err
        assert np.abs(np.linalg.norm(sample.rows, axis=1) - 1.0).max() <= 1e-12

    def test_non_numeric_cell_location_after_preamble(self, tmp_path, capsys):
        # a header and a comment line come first, so the row is a file line number
        data = tmp_path / "bad.csv"
        data.write_text("x,y\n# note\n1.0,0.0\n0.0,1.0\n0.6,oops\n")
        assert run_cli("test", str(data)) == 2
        assert "non-numeric value 'oops' at row 5, column 2" in capsys.readouterr().err

    def test_ragged_rows_rejected(self, tmp_path, capsys):
        data = tmp_path / "ragged.csv"
        data.write_text("x,y\n# note\n1.0,0.0\n0.0\n1.0,0.0\n")
        assert run_cli("test", str(data)) == 2
        assert "row 4 has 1 columns, expected 2" in capsys.readouterr().err

    def test_zero_row_rejected(self, tmp_path):
        data = tmp_path / "zero.csv"
        data.write_text("1.0,0.0\n0.0,0.0\n0.0,1.0\n")
        assert run_cli("test", str(data)) == 2

    @pytest.mark.parametrize("magnitude", ["1e200", "1e-200", "1e308", "5e-324"])
    def test_extreme_row_scale_normalizes(self, tmp_path, capsys, magnitude):
        # the row norm overflows or underflows unless the row is scaled first
        data = tmp_path / "extreme.csv"
        data.write_text(f"{magnitude},{magnitude}\n1.0,0.0\n0.0,1.0\n-3,4\n")
        sample = load_data_csv(str(data))
        assert "renormaliz" in capsys.readouterr().err
        np.testing.assert_allclose(sample.rows[0], [2**-0.5, 2**-0.5], rtol=1e-15)
        np.testing.assert_allclose(sample.rows[3], [-0.6, 0.8], rtol=1e-15)
        assert run_cli("test", str(data)) == 0

    def test_zero_row_among_extreme_rows_rejected(self, tmp_path, capsys):
        data = tmp_path / "zero.csv"
        data.write_text("1e200,1e200\n1e-200,1e-200\n0.0,0.0\n0.0,1.0\n")
        assert run_cli("test", str(data)) == 2
        assert "observation 3 is a zero vector" in capsys.readouterr().err

    def test_zero_row_names_file_row(self, tmp_path, capsys):
        data = tmp_path / "zero.csv"
        data.write_text("x,y\n# note\n1.0,0.0\n0.0,0.0\n0.0,1.0\n")
        assert run_cli("test", str(data)) == 2
        assert "observation 2 is a zero vector (row 4)" in capsys.readouterr().err

    def test_savetxt_round_trip_is_bit_exact(self, tmp_path):
        rng = np.random.default_rng(20251018)
        rows = rng.standard_normal((2000, 50)) * 10.0 ** rng.integers(-300, 300, (2000, 50))
        rows[0, 0], rows[1, 1], rows[2, 2] = -0.0, 5e-324, -1.7976931348623157e308
        path = tmp_path / "big.csv"
        np.savetxt(path, rows, fmt="%.17g", delimiter=",")
        lines = path.read_text().splitlines()
        parsed = _parse_table(lines, list(range(1, len(lines) + 1)), str(path))
        assert parsed.shape == rows.shape
        assert np.array_equal(parsed.view(np.uint64), rows.view(np.uint64))

    def test_invalid_utf8_is_exit_2(self, tmp_path, capsys):
        data = tmp_path / "latin1.csv"
        data.write_bytes(b"x\xe9,y\n1.0,0.0\n0.0,1.0\n0.6,0.8\n")
        assert run_cli("test", str(data)) == 2
        assert "cannot read input file" in capsys.readouterr().err

    def test_invalid_utf8_late_in_the_file_names_its_file_offset(self, tmp_path, capsys):
        # the file is read line by line, but the error still counts bytes from its start
        data = tmp_path / "late.csv"
        data.write_bytes(b"1.0,0.0\n" * 5000 + b"0.6,0.8\xe9\n")
        assert run_cli("test", str(data)) == 2
        assert "can't decode byte 0xe9 in position 40007" in capsys.readouterr().err

    @pytest.mark.parametrize("second, offset", [(b"oops,1\n", 40022), (b"1,2,3\n", 40021)],
                             ids=["cell", "width"])
    def test_invalid_utf8_beyond_a_read_chunk_wins_over_a_bad_row(
        self, tmp_path, capsys, second, offset
    ):
        # the per-cell parser reads to the end of the file before it reports the bad
        # row, so a bad byte more than one 8 KiB read later is still the error
        data = tmp_path / "late.csv"
        data.write_bytes(b"1.0,0.0\n" + second + b"1.0,0.0\n" * 5000 + b"0.6,0.8\xe9\n")
        assert run_cli("test", str(data)) == 2
        err = capsys.readouterr().err
        assert f"can't decode byte 0xe9 in position {offset}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "body, n",
        [
            (b"1,0\n0,1\n1,1\n-1,0\n", 4),
            (b"x,y\n1,0\n0,1\n1,1\n", 3),  # the header is still found and dropped
            (b"1,0\n0,1\n1_0,0\n-1,0\n", 4),  # the C reader refuses 1_0: the per-cell path
        ],
        ids=["rows", "header", "per-cell"],
    )
    def test_byte_order_mark_is_dropped(self, tmp_path, body, n):
        # with the mark the first data row read as a header and was lost
        data = tmp_path / "bom.csv"
        data.write_bytes(b"\xef\xbb\xbf" + body)
        assert load_data_csv(str(data)).n == n

    def test_bad_level_refused_before_the_data_are_read(self, tmp_path, capsys):
        assert run_cli("test", str(tmp_path / "missing.csv"), "--level", "1.5") == 2
        err = capsys.readouterr().err
        assert "level must lie in (0, 1)" in err and "cannot read" not in err

    def test_load_and_tests_peak_memory(self, tmp_path):
        # the rows take 4000 * 100 * 8 B = 3.2 MB; the file text, its list of lines,
        # full-size normalization copies or a 256 x 4000 Gram tile would each add as much
        rows = sample_uniform_sphere(4000, 100, SeedSpec(78)).rows
        data = tmp_path / "large.csv"
        np.savetxt(data, rows, fmt="%.17g", delimiter=",")
        tracemalloc.start()
        try:
            run_all_tests(load_data_csv(str(data)))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    def test_per_cell_load_and_tests_peak_memory(self, tmp_path):
        # one cell the C reader refuses sends the whole file through the per-cell
        # parser, which streams it too: the same bound holds
        rows = sample_uniform_sphere(4000, 100, SeedSpec(78)).rows
        data = tmp_path / "large.csv"
        np.savetxt(data, rows, fmt="%.17g", delimiter=",")
        lines = data.read_text().splitlines()
        lines[3000] = "1_0" + lines[3000][lines[3000].index(","):]
        data.write_text("\n".join(lines) + "\n")
        tracemalloc.start()
        try:
            sample = load_data_csv(str(data))
            run_all_tests(sample)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sample.n == 4000
        assert peak < 8 * 2**20

    def test_csv_output_shape(self, tmp_path, capsys):
        data = tmp_path / "u.csv"
        run_cli("sample", "--model", "uniform", "--n", "30", "--p", "10",
                "--seed", "1", "--out", str(data))
        assert run_cli("test", str(data)) == 0
        out = capsys.readouterr().out
        body = [l for l in out.splitlines() if not l.startswith("#")]
        assert body[0] == "test,statistic,p_value,reject,level"
        assert len(body) == 5


class TestOutputFile:
    # the call in cli that does each command's work; diagnose's is its DIAGNOSTICS row
    WORK = {
        "test": "load_data_csv",
        "sample": "sample_from_model",
        "size-table": "run_rejection_experiment",
        "power-table": "run_rejection_experiment",
    }
    # a valid request of each command
    ARGV = [
        ("test", "{data}"),
        ("sample", "--n", "3", "--p", "2"),
        ("size-table", "--reps", "1", "--scenarios", "5x3"),
        ("power-table", "--reps", "1", "--scenarios", "5x3"),
        ("diagnose", "packing-lln", "--n", "5", "--p", "3", "--reps", "2"),
    ]

    def patch_work(self, monkeypatch, command, work):
        if command == "diagnose":  # the row holds the function itself
            monkeypatch.setitem(cli.DIAGNOSTICS, "packing-lln", (("marginal",), work))
        else:
            monkeypatch.setattr(cli, self.WORK[command], work)

    @pytest.mark.parametrize("argv", ARGV, ids=lambda argv: argv[0])
    @pytest.mark.parametrize("out", ["missing/out.txt", "."], ids=["missing-dir", "directory"])
    def test_unwritable_out_is_exit_2(self, tmp_path, capsys, monkeypatch, argv, out):
        # the path is refused before the command's work: that work, here one that
        # raises, never runs
        def work(*args, **kwargs):
            raise AssertionError("the command ran before checking --out")

        self.patch_work(monkeypatch, argv[0], work)
        data = tmp_path / "d.csv"
        data.write_text("1,0\n0,1\n1,1\n")
        argv = [arg.format(data=data) for arg in argv]
        assert run_cli(*argv, "--out", str(tmp_path / out)) == 2
        err = capsys.readouterr().err
        assert f"cannot write output file {tmp_path / out}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv", ARGV, ids=lambda argv: argv[0])
    def test_refused_request_is_exit_2(self, tmp_path, capsys, monkeypatch, argv):
        # a ValueError from the library is a refused request, whichever command's
        # work raises it; main() alone turns it into exit 2
        def refuse(*args, **kwargs):
            raise ValueError("synthetic refusal")

        self.patch_work(monkeypatch, argv[0], refuse)
        argv = [arg.format(data=tmp_path / "d.csv") for arg in argv]
        assert run_cli(*argv) == 2
        err = capsys.readouterr().err
        assert "error: synthetic refusal" in err
        assert "Traceback" not in err


class TestSizeTable:
    def test_smoke_single_replication(self, tmp_path):
        out = tmp_path / "t.csv"
        assert run_cli("size-table", "--reps", "1", "--seed", "4",
                       "--scenarios", "20x10,30x20,40x10", "--threads", "1",
                       "--out", str(out)) == 0
        lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert lines[0] == "test,n20_p10,n30_p20,n40_p10"
        assert [l.split(",")[0] for l in lines[1:]] == [
            "fisher", "rayleigh", "packing", "bingham"
        ]
        for line in lines[1:]:
            for cell in line.split(",")[1:]:
                assert float(cell) in (0.0, 1.0)

    def test_default_has_three_scenario_columns(self, tmp_path):
        out = tmp_path / "t.json"
        assert run_cli("size-table", "--reps", "1", "--seed", "4", "--threads", "1",
                       "--format", "json", "--out", str(out)) == 0
        doc = json.loads(out.read_text())
        assert doc["config"]["scenarios"] == "80x40,100x100,100x120"
        row = doc["rows"][0]
        assert set(row) == {"test", "n80_p40", "n100_p100", "n100_p120"}

    def test_huge_thread_count_runs_one_worker_per_block(self, tmp_path, monkeypatch):
        # --reps 3 is one block per cell, so the map runs it in the calling thread
        from sphereuni import _parallel, experiments

        resolved = []
        real = experiments._resolve_workers

        def record(threads, items=None):
            resolved.append(real(threads, items))
            return resolved[-1]

        def no_thread(*args, **kwargs):
            raise AssertionError("a worker thread was started")

        monkeypatch.setattr(experiments, "_resolve_workers", record)
        monkeypatch.setattr(_parallel.threading, "Thread", no_thread)
        assert run_cli("size-table", "--reps", "3", "--threads", "1000000",
                       "--out", str(tmp_path / "t.csv")) == 0
        assert resolved == [1, 1, 1]  # one per cell of the default three scenarios

    def test_reproducible_apart_from_timestamp(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ("size-table", "--reps", "2", "--seed", "9",
                "--scenarios", "20x10", "--threads", "2")
        run_cli(*args, "--out", str(a))
        run_cli(*args, "--out", str(b))
        assert strip_timestamp(a.read_text()) == strip_timestamp(b.read_text())


class TestPowerTable:
    def test_smoke_grid(self, tmp_path):
        out = tmp_path / "p.csv"
        assert run_cli("power-table", "--reps", "1", "--seed", "4",
                       "--scenarios", "20x10,30x20", "--threads", "1",
                       "--out", str(out)) == 0
        lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert lines[0] == "test,marginal,n20_p10,n30_p20"
        assert len(lines) == 1 + 4 * 3  # tests x marginals
        marginals = {l.split(",")[1] for l in lines[1:]}
        assert marginals == {"chisq1", "cauchy", "t:1.5"}


class TestDiagnose:
    def test_unknown_kind_lists_valid(self, tmp_path, capsys):
        assert run_cli("diagnose", "nonsense") == 2
        err = capsys.readouterr().err
        assert "independence" in err and "fvml-blindness" in err

    def test_independence_schema(self, tmp_path):
        out = tmp_path / "d.json"
        assert run_cli("diagnose", "independence", "--n", "40", "--p", "60",
                       "--reps", "150", "--seed", "2", "--threads", "2",
                       "--out", str(out)) == 0
        doc = json.loads(out.read_text())
        assert doc["kind"] == "independence"
        for key in ("corr_rb", "corr_rp", "corr_bp", "joint_vs_product_gap", "fisher_size"):
            assert key in doc["metrics"]

    def test_packing_lln_cauchy(self, tmp_path):
        out = tmp_path / "d.json"
        assert run_cli("diagnose", "packing-lln", "--n", "100", "--p", "50",
                       "--marginal", "cauchy", "--reps", "120", "--seed", "2",
                       "--threads", "2", "--out", str(out)) == 0
        doc = json.loads(out.read_text())
        assert doc["metrics"]["median_max_abs_inner"] >= 0.9

    def test_fvml_tau_zero(self, tmp_path):
        out = tmp_path / "d.json"
        assert run_cli("diagnose", "fvml-blindness", "--n", "60", "--p", "40",
                       "--tau", "0", "--reps", "300", "--seed", "2",
                       "--threads", "2", "--out", str(out)) == 0
        doc = json.loads(out.read_text())
        assert abs(doc["metrics"]["packing_rate"] - doc["metrics"]["packing_rate_null"]) <= 0.05

    def test_sampler_that_gives_up_exits_1(self, fvml_never_accepts, capsys):
        assert run_cli("diagnose", "fvml-blindness", "--n", "10", "--p", "5", "--tau", "1",
                       "--reps", "2", "--seed", "1", "--threads", "1") == 1
        assert ("RuntimeError: replication 0 failed: FvML cosine sampler failed to accept "
                "after 1000 rounds") in capsys.readouterr().err

    def test_warning_is_one_line_without_source(self, capsys):
        assert run_cli("diagnose", "independence", "--n", "40", "--p", "30",
                       "--reps", "20", "--seed", "1") == 0
        err = capsys.readouterr().err
        assert err.splitlines() == [
            "warning: independence diagnostic at p=30, n=40: the asymptotic regime "
            "expects p well above (log n)^2 = 13.6"
        ]

    def test_warning_prints_when_the_process_turns_warnings_into_errors(self, capsys):
        # as under `python -W error`: the regime warning is still a warning line
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli("diagnose", "independence", "--n", "20", "--p", "10",
                           "--reps", "30", "--seed", "2", "--threads", "1") == 0
        err = capsys.readouterr().err
        assert err.splitlines() == [
            "warning: independence diagnostic at p=10, n=20: the asymptotic regime "
            "expects p well above (log n)^2 = 9.0"
        ]

    def test_warnings_print_before_the_error_when_the_run_raises(self, monkeypatch, capsys):
        def warns_then_raises(*args, **kwargs):
            warnings.warn("synthetic warning")
            raise ValueError("synthetic failure")

        monkeypatch.setitem(cli.DIAGNOSTICS, "independence", ((), warns_then_raises))
        assert run_cli("diagnose", "independence", "--n", "5", "--p", "3", "--reps", "2") == 2
        assert capsys.readouterr().err.splitlines() == [
            "warning: synthetic warning", "error: synthetic failure"
        ]

    def test_asymmetric_marginal_is_config_error(self, tmp_path):
        assert run_cli("diagnose", "rayleigh-blindness", "--marginal", "chisq1",
                       "--n", "20", "--p", "10", "--reps", "5", "--seed", "1") == 2


SPREAD_KINDS = ("rayleigh-blindness", "bingham-scaling", "independence")


class TestExitCodes:
    @pytest.mark.parametrize(
        "argv, message",
        [
            (("size-table", "--reps", "0"), "replications must be >= 1"),
            (("size-table", "--reps", "1", "--threads", "-1"), "threads must be >= 0"),
            (("size-table", "--reps", "1", "--scenarios", "2x3"), "need n >= 3"),
            # the plan's own check, the one check of n and p
            (("diagnose", "packing-lln", "--n", "2", "--reps", "5"), "need n >= 3"),
            *((("diagnose", kind, "--reps", reps), "replications must be >= 1")
              for kind in DIAGNOSE_KINDS for reps in ("0", "-3")),
            # a standard deviation or a correlation needs two replications
            *((("diagnose", kind, "--reps", "1"), "replications must be >= 2")
              for kind in SPREAD_KINDS),
            *((("diagnose", "fvml-blindness", "--tau", tau), "tau must be finite and >= 0")
              for tau in ("nan", "inf")),
            # a finite tau whose kappa overflows is reported as tau, the command's flag
            (("diagnose", "fvml-blindness", "--tau", "1e308", "--n", "10", "--p", "5",
              "--reps", "2"), "tau = 1e+308 is too large"),
            # a bad flag value goes through the row's converter, as a config value does
            (("sample", "--n", "x"), "--n: bad value 'x'"),
            (("sample", "--model", "bogus"), "--model: bad value 'bogus'"),
            (("size-table", "--format", "xml"), "--format: bad value 'xml'"),
            (("diagnose", "independence", "--marginal", "bogus"), "--marginal: bad value 'bogus'"),
            (("sample", "--model", "fvml", "--marginal", "bogus"), "--marginal: bad value 'bogus'"),
            (("size-table", "--scenarios", "1x"), "--scenarios: bad value '1x'"),
            (("size-table", "--scenarios", "5x3,05X3"), "--scenarios: bad value '5x3,05X3'"),
            # sample refuses an option its model does not read, with AlternativeModel's message
            *((("sample", "--model", model, "--marginal", "cauchy", "--n", "3", "--p", "2"),
               f"model {model} takes no marginal") for model in ("uniform", "fvml")),
            (("sample", "--kappa", "5", "--n", "3", "--p", "2"),
             "model uniform takes no kappa"),
            (("sample", "--model", "alpha-spherical", "--marginal", "cauchy", "--kappa", "5",
              "--n", "3", "--p", "2"), "model alpha_spherical takes no kappa"),
            (("sample", "--model", "alpha-spherical", "--n", "3", "--p", "2"),
             "model alpha_spherical needs a marginal"),
            # diagnose refuses a --tau or --marginal its kind does not read
            *((("diagnose", kind, f"--{name}", value, "--n", "10", "--p", "5", "--reps", "3"),
               f"diagnose {kind} takes no --{name}")
              for kind, name, value in (("independence", "tau", "9"),
                                        ("independence", "marginal", "t:1.5"),
                                        ("fvml-blindness", "marginal", "t:1.5"),
                                        ("packing-lln", "tau", "2"))),
        ],
        ids=["reps-0", "negative-threads", "scenario-n2", "diagnose-n2",
             *(f"diagnose-{kind}-reps{reps}" for kind in DIAGNOSE_KINDS for reps in ("0", "-3")),
             *(f"diagnose-{kind}-reps1" for kind in SPREAD_KINDS),
             "fvml-tau-nan", "fvml-tau-inf", "fvml-kappa-overflow",
             "flag-n-text", "flag-model-bogus", "flag-format-xml",
             "flag-diagnose-marginal-bogus", "flag-sample-marginal-bogus",
             "flag-scenarios-token", "flag-scenarios-repeated",
             "uniform-marginal", "fvml-marginal", "uniform-kappa", "alpha-spherical-kappa",
             "alpha-spherical-no-marginal",
             "independence-tau", "independence-marginal", "fvml-blindness-marginal",
             "packing-lln-tau"],
    )
    def test_usage_error_is_exit_2(self, capsys, argv, message):
        assert run_cli(*argv) == 2
        err = capsys.readouterr().err
        assert message in err
        assert "Traceback" not in err
        assert "RuntimeWarning" not in err

    @pytest.mark.parametrize("kind", SPREAD_KINDS)
    def test_one_replication_is_refused_before_numpy_warns(self, capsys, kind):
        # the diagnostic's warnings print as lines, so this is the guard against
        # numpy's divide warnings: the error is the only line
        assert run_cli("diagnose", kind, "--reps", "1") == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("error: ") and line.endswith("replications must be >= 2")

    def test_diagnose_kind_refuses_a_config_value_it_does_not_read(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"tau": 9}))
        assert run_cli("diagnose", "rayleigh-blindness", "--config", str(cfg),
                       "--n", "10", "--p", "5", "--reps", "3") == 2
        assert "diagnose rayleigh-blindness takes no --tau" in capsys.readouterr().err

    def test_diagnose_kind_accepts_the_default_of_an_option_it_does_not_read(self, tmp_path):
        out = tmp_path / "d.json"
        assert run_cli("diagnose", "independence", "--marginal", "cauchy", "--n", "10",
                       "--p", "5", "--reps", "3", "--out", str(out)) == 0
        assert json.loads(out.read_text())["config"]["marginal"] == "cauchy"

    def test_internal_error_is_exit_1(self, tmp_path, monkeypatch):
        data = tmp_path / "u.csv"
        run_cli("sample", "--model", "uniform", "--n", "10", "--p", "4",
                "--seed", "1", "--out", str(data))

        import sphereuni.cli as cli_mod

        def boom(*args, **kwargs):
            raise RuntimeError("synthetic internal failure")

        monkeypatch.setattr(cli_mod, "run_all_tests", boom)
        assert run_cli("test", str(data)) == 1

    def test_zero_norm_draw_is_exit_1(self, monkeypatch, capsys):
        # a generator that draws a zero row is broken: an internal error, not a usage one
        from sphereuni import sampling

        real = sampling._draw_rows

        def zero_row(model, p, seed, out):
            real(model, p, seed, out)
            if seed.replication_index == 1:
                out[0] = 0.0

        monkeypatch.setattr(sampling, "_draw_rows", zero_row)
        assert run_cli("size-table", "--reps", "3", "--scenarios", "5x3") == 1
        assert "replication 1 failed: uniform sampler: drew a zero-norm row" in (
            capsys.readouterr().err
        )


class TestConfigFile:
    def test_config_supplies_values_and_flags_override(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 6, "p": 3, "seed": 1, "model": "uniform"}))
        out = tmp_path / "s.csv"
        assert run_cli("sample", "--config", str(cfg), "--seed", "2",
                       "--out", str(out)) == 0
        embedded = json.loads(out.read_text().splitlines()[0].removeprefix("# config="))
        assert embedded["n"] == 6  # from config file
        assert embedded["seed"] == 2  # flag wins

    def test_bad_config_is_exit_2(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("not json")
        assert run_cli("sample", "--config", str(cfg)) == 2

    def test_config_that_names_a_directory_is_exit_2(self, tmp_path, capsys):
        assert run_cli("sample", "--config", str(tmp_path)) == 2
        err = capsys.readouterr().err
        assert f"error: cannot read config file {tmp_path}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv, doc, key",
        [
            (("sample",), {"n": "abc"}, "'n'"),
            (("sample",), {"n": 2.5}, "'n'"),
            (("sample",), {"kappa": [1]}, "'kappa'"),
            (("size-table", "--scenarios", "5x3"), {"reps": "abc"}, "'reps'"),
            (("size-table", "--scenarios", "5x3", "--reps", "1"), {"format": "xml"}, "'format'"),
            (("diagnose", "packing-lln", "--reps", "2"), {"n": "abc"}, "'n'"),
            (("diagnose", "fvml-blindness", "--reps", "2"), {"tau": {"a": 1}}, "'tau'"),
            (("sample",), {"model": "ALPHA"}, "'model'"),
            (("sample",), {"model": " fvml "}, "'model'"),
            # JSON booleans are not numbers, although Python's bool is an int
            (("sample",), {"n": True}, "'n'"),
            (("sample",), {"p": True}, "'p'"),
            (("sample", "--model", "fvml"), {"kappa": True}, "'kappa'"),
            (("size-table", "--scenarios", "5x3"), {"reps": True}, "'reps'"),
            (("size-table", "--scenarios", "5x3", "--reps", "1"), {"level": False}, "'level'"),
            (("diagnose", "fvml-blindness", "--reps", "2"), {"tau": True}, "'tau'"),
            # a marginal spec is checked wherever it is given
            (("diagnose", "independence"), {"marginal": "bogus"}, "'marginal'"),
            (("sample",), {"marginal": 5}, "'marginal'"),
            # so is a scenario list
            (("size-table", "--reps", "1"), {"scenarios": "1x"}, "'scenarios'"),
            (("size-table", "--reps", "1"), {"scenarios": 5}, "'scenarios'"),
            (("size-table", "--reps", "1"), {"scenarios": "5x3,05X3"}, "'scenarios'"),
        ],
        ids=["sample-n-text", "sample-n-fraction", "sample-kappa-list",
             "size-table-reps", "size-table-format", "diagnose-n", "diagnose-tau",
             "sample-model-alias", "sample-model-padded", "sample-n-bool", "sample-p-bool",
             "sample-kappa-bool", "size-table-reps-bool", "size-table-level-bool",
             "diagnose-tau-bool", "diagnose-marginal-bogus", "sample-marginal-number",
             "size-table-scenarios-token", "size-table-scenarios-number",
             "size-table-scenarios-repeated"],
    )
    def test_wrong_type_value_is_exit_2(self, tmp_path, capsys, argv, doc, key):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        assert run_cli(*argv, "--config", str(cfg)) == 2
        err = capsys.readouterr().err
        assert f"config key {key}" in err
        assert "Traceback" not in err

    def test_unknown_key_is_exit_2_before_any_work(self, tmp_path, capsys, monkeypatch):
        def no_run(*args, **kwargs):
            raise AssertionError("a cell ran")

        monkeypatch.setattr(cli, "run_rejection_experiment", no_run)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"rep": 3}))
        out = tmp_path / "t.csv"
        assert run_cli("size-table", "--config", str(cfg), "--out", str(out)) == 2
        assert capsys.readouterr().err == (
            "error: config key 'rep' is not an option of any command\n"
        )
        assert not out.exists()

    def test_one_file_serves_several_commands(self, tmp_path):
        # keys of another command's options, and the fields artifacts derive, are accepted
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 5, "p": 3, "model": "uniform", "reps": 1, "tau": 2.0,
                                   "scenarios": "5x3", "format": "json", "kind": "x",
                                   "input": "x.csv", "marginals": [], "command": "test"}))
        assert run_cli("sample", "--config", str(cfg), "--out", str(tmp_path / "s.csv")) == 0
        assert run_cli("size-table", "--config", str(cfg), "--out", str(tmp_path / "t.json")) == 0

    def test_null_value_means_unset(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 5, "p": 3, "marginal": None, "kappa": None}))
        out = tmp_path / "s.csv"
        assert run_cli("sample", "--config", str(cfg), "--out", str(out)) == 0
        embedded = json.loads(out.read_text().splitlines()[0].removeprefix("# config="))
        assert embedded["kappa"] == 0.0 and embedded["marginal"] is None

    def test_extreme_finite_kappa(self, tmp_path):
        out = tmp_path / "s.csv"
        assert run_cli("sample", "--model", "fvml", "--kappa", "1e300",
                       "--n", "5", "--p", "4", "--seed", "3", "--out", str(out)) == 0
        rows = np.loadtxt(out, delimiter=",", comments="#")
        assert rows.shape == (5, 4)
        np.testing.assert_allclose(np.linalg.norm(rows, axis=1), 1.0, atol=1e-12)

    def test_non_finite_kappa_is_exit_2(self, capsys):
        for kappa in ("nan", "inf"):
            assert run_cli("sample", "--model", "fvml", "--kappa", kappa,
                           "--n", "5", "--p", "3") == 2
            assert f"error: kappa must be finite and >= 0, got {kappa}" in capsys.readouterr().err


class TestRejectedRequests:
    @pytest.mark.parametrize("spec", ["t:nan", "t:inf"])
    @pytest.mark.parametrize(
        "argv",
        [
            ("diagnose", "packing-lln", "--n", "10", "--p", "3", "--reps", "3"),
            ("diagnose", "rayleigh-blindness", "--n", "10", "--p", "3", "--reps", "3"),
            ("sample", "--model", "alpha-spherical", "--n", "5", "--p", "3"),
        ],
        ids=["packing-lln", "rayleigh-blindness", "sample"],
    )
    def test_non_finite_degrees_of_freedom(self, capsys, argv, spec):
        assert run_cli(*argv, "--marginal", spec) == 2
        err = capsys.readouterr().err
        assert f"bad marginal spec {spec!r}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("spec", ["t:0.01", "t:1e-5", "pareto:0.01", "pareto:1e-300"])
    def test_overflowing_tail_parameter_diagnose(self, capsys, spec):
        # raw coordinates (or their squares) overflow to inf; rows take their limit direction
        assert run_cli("diagnose", "packing-lln", "--marginal", spec,
                       "--n", "10", "--p", "3", "--reps", "3") == 0
        out, err = capsys.readouterr()
        assert err == ""
        metrics = json.loads(out)["metrics"]
        assert 0.0 < metrics["median_max_abs_inner"] <= 1.0 + 1e-12

    def test_overflowing_tail_parameter_sample(self, tmp_path, capsys):
        out = tmp_path / "s.csv"
        assert run_cli("sample", "--model", "alpha-spherical", "--marginal", "t:1e-5",
                       "--out", str(out)) == 0
        assert capsys.readouterr().err == ""
        rows = np.loadtxt(out, delimiter=",", comments="#")
        assert rows.shape == (100, 100)
        np.testing.assert_allclose(np.linalg.norm(rows, axis=1), 1.0, atol=1e-12)

    @pytest.mark.parametrize("via", ["flag", "config"])
    def test_empty_scenarios(self, tmp_path, capsys, via):
        from sphereuni.cli import CliError

        with pytest.raises(CliError, match="bad scenario token ''"):
            parse_scenarios("")
        argv = ["size-table", "--reps", "1", "--out", str(tmp_path / "t.csv")]
        if via == "flag":
            argv += ["--scenarios", ""]
        else:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"scenarios": ""}))
            argv += ["--config", str(cfg)]
        assert run_cli(*argv) == 2
        assert "bad scenario token ''" in capsys.readouterr().err
        assert not (tmp_path / "t.csv").exists()

    @pytest.mark.parametrize(
        "target, argv",
        [
            ("sample_from_model", ("sample", "--n", "1000000", "--p", "1000000")),
            ("run_rejection_experiment",
             ("size-table", "--scenarios", "5x3", "--reps", "1000000000000")),
        ],
        ids=["sample", "size-table"],
    )
    def test_memory_error_is_exit_2(self, monkeypatch, capsys, target, argv):
        # numpy raises this before allocating; the stand-in never allocates at all
        import sphereuni.cli as cli_mod

        message = ("Unable to allocate 7.28 TiB for an array with shape "
                   "(1000000, 1000000) and data type float64")

        def oversize(*args, **kwargs):
            raise MemoryError(message)

        monkeypatch.setattr(cli_mod, target, oversize)
        assert run_cli(*argv) == 2
        err = capsys.readouterr().err
        assert f"error: {message}" in err
        assert "Traceback" not in err
