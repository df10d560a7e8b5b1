"""The CLI's option surface: flags, config keys and the embedded `config` block.

These pin what each command accepts and records, so that a change to how
options are declared cannot change a flag, a default, a key or its order.
"""

import json
import re
from pathlib import Path
from types import SimpleNamespace

import pytest

import sphereuni.cli as cli
from sphereuni.cli import main

# the config keys each command takes, which are also its flags
COMMAND_OPTIONS = {
    "test": ("level", "format"),
    "sample": ("n", "p", "model", "marginal", "kappa", "seed"),
    "size-table": ("scenarios", "reps", "level", "seed", "threads", "format"),
    "power-table": ("scenarios", "reps", "level", "seed", "threads", "format"),
    "diagnose": ("n", "p", "marginal", "tau", "reps", "level", "seed", "threads"),
}

# a value for each option that is cheap to run and differs from its default
VALUES = {
    "scenarios": "5x3",
    "n": 5,
    "p": 3,
    "model": "fvml",
    "marginal": "t:1.5",
    "kappa": 2.5,
    "tau": 0.5,
    "reps": 2,
    "level": 0.1,
    "seed": 7,
    "threads": 1,
    "format": "json",
}

# the model that reads each sample option which not every model reads
MODEL_READING = {"marginal": "alpha-spherical", "kappa": "fvml"}

# the diagnostic kind each diagnose option runs under: one that reads it
KIND_READING = {"tau": "fvml-blindness"}

# flags that keep each run tiny when the option under test is not one of them
SMALL = {
    "sample": {"n": 5, "p": 3},
    "size-table": {"scenarios": "5x3", "reps": 1},
    "power-table": {"scenarios": "5x3", "reps": 1},
    "diagnose": {"n": 5, "p": 3, "reps": 2},
}


def embedded_config(path):
    text = path.read_text()
    if text.startswith("{"):
        return json.loads(text)["config"]
    return json.loads(text.splitlines()[0].removeprefix("# config="))


@pytest.fixture
def data_csv(tmp_path):
    path = tmp_path / "data.csv"
    assert main(["sample", "--n", "6", "--p", "4", "--seed", "1", "--out", str(path)]) == 0
    return path


class TestConfigAtDefaults:
    def test_test(self, tmp_path, data_csv):
        out = tmp_path / "r.json"
        assert main(["test", str(data_csv), "--format", "json", "--out", str(out)]) == 0
        assert list(embedded_config(out).items()) == [
            ("command", "test"), ("input", str(data_csv)), ("n", 6), ("p", 4),
            ("level", 0.05), ("format", "json"),
        ]

    def test_sample(self, tmp_path):
        out = tmp_path / "s.csv"
        assert main(["sample", "--out", str(out)]) == 0
        assert out.read_text().splitlines()[0] == (
            '# config={"command": "sample", "kappa": 0.0, "marginal": null, '
            '"model": "uniform", "n": 100, "p": 100, "seed": 0}'
        )

    @pytest.mark.parametrize("command", ["size-table", "power-table"])
    def test_tables(self, tmp_path, monkeypatch, command):
        plans = []

        def fake_experiment(plan, threads=0):
            plans.append((plan, threads))
            tests = ("fisher", "rayleigh", "packing", "bingham")
            return SimpleNamespace(per_test={test: SimpleNamespace(rate=0.0) for test in tests})

        monkeypatch.setattr(cli, "run_rejection_experiment", fake_experiment)
        out = tmp_path / "t.json"
        assert main([command, "--format", "json", "--out", str(out)]) == 0
        expected = [("command", command), ("scenarios", "80x40,100x100,100x120")]
        if command == "power-table":
            expected.append(("marginals", ["chisq1", "cauchy", "t:1.5"]))
        expected += [("reps", 2000), ("level", 0.05), ("seed", 0), ("threads", 0),
                     ("format", "json")]
        assert list(embedded_config(out).items()) == expected
        assert {(plan.n, plan.p) for plan, _ in plans} == {(80, 40), (100, 100), (100, 120)}
        assert all((plan.replications, plan.level, plan.master_seed, threads) == (2000, 0.05, 0, 0)
                   for plan, threads in plans)

    @pytest.mark.parametrize("kind", sorted(cli.DIAGNOSTICS))
    def test_diagnose(self, tmp_path, monkeypatch, kind):
        calls = []

        def fake(*args, **kwargs):
            calls.append((args, kwargs))
            return SimpleNamespace(kind=kind, metrics={"x": 1.0})

        reads, _ = cli.DIAGNOSTICS[kind]
        monkeypatch.setitem(cli.DIAGNOSTICS, kind, (reads, fake))
        out = tmp_path / "d.json"
        assert main(["diagnose", kind, "--out", str(out)]) == 0
        assert len(calls) == 1
        args, kwargs = calls[0]
        assert args[:2] == (100, 100) and len(args) == 2 + len(reads)
        assert kwargs == {"replications": 2000, "master_seed": 0, "level": 0.05, "threads": 0}
        assert list(embedded_config(out).items()) == [
            ("command", "diagnose"), ("kind", kind), ("n", 100), ("p", 100),
            ("marginal", "cauchy"), ("tau", 1.0), ("reps", 2000), ("level", 0.05),
            ("seed", 0), ("threads", 0),
        ]


@pytest.mark.parametrize("command", sorted(COMMAND_OPTIONS))
def test_help_lists_the_command_flags(capsys, command):
    with pytest.raises(SystemExit) as exit_info:
        main([command, "--help"])
    assert exit_info.value.code == 0
    flags = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", capsys.readouterr().out))
    assert flags == {f"--{name}" for name in COMMAND_OPTIONS[command]} | {
        "--config", "--out", "--help"
    }


@pytest.mark.parametrize(
    "command, option",
    [(command, option) for command, options in COMMAND_OPTIONS.items() for option in options],
)
def test_flag_and_config_embed_the_same_config(tmp_path, data_csv, command, option):
    head = [command]
    if command == "test":
        head.append(str(data_csv))
    elif command == "diagnose":
        head.append(KIND_READING.get(option, "packing-lln"))
    if command == "sample" and option in MODEL_READING:
        head += ["--model", MODEL_READING[option]]
    for key, value in SMALL.get(command, {}).items():
        if key != option:
            head += [f"--{key}", str(value)]

    by_flag, by_config = tmp_path / "flag.out", tmp_path / "config.out"
    assert main([*head, f"--{option}", str(VALUES[option]), "--out", str(by_flag)]) == 0
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({option: VALUES[option]}))
    assert main([*head, "--config", str(cfg), "--out", str(by_config)]) == 0

    from_flag = embedded_config(by_flag)
    assert list(from_flag.items()) == list(embedded_config(by_config).items())
    assert from_flag[option] == VALUES[option]


# a small run of each command and diagnose kind: its name and positional, then its flags
FEEDBACK_RUNS = {
    "sample": (["sample"], ["--n", "5", "--p", "3", "--model", "fvml", "--kappa", "2.5",
                            "--seed", "7"]),
    "test": (["test", "DATA"], ["--level", "0.1", "--format", "json"]),
    **{table: ([table], ["--scenarios", "5x3", "--reps", "2", "--seed", "7", "--format", "json"])
       for table in ("size-table", "power-table")},
    **{f"diagnose-{kind}": (["diagnose", kind], ["--n", "5", "--p", "3", "--reps", "2",
                                                 "--seed", "7", "--threads", "1"])
       for kind in sorted(cli.DIAGNOSTICS)},
}


@pytest.mark.parametrize("run", sorted(FEEDBACK_RUNS))
def test_an_artifacts_config_feeds_back(tmp_path, data_csv, run):
    head, flags = FEEDBACK_RUNS[run]
    head = [str(data_csv) if arg == "DATA" else arg for arg in head]
    first, again = tmp_path / "first.out", tmp_path / "again.out"
    assert main([*head, *flags, "--out", str(first)]) == 0
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(embedded_config(first)))
    assert main([*head, "--config", str(cfg), "--out", str(again)]) == 0
    assert list(embedded_config(again).items()) == list(embedded_config(first).items())


def test_flag_text_of_each_default_resolves_to_it():
    for option in cli.OPTIONS:
        if option.default is not None:
            assert option.convert(str(option.default)) == option.default, option


def test_readme_config_table_lists_each_commands_options_in_row_order():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    table = readme.split("| command | config keys |\n|---|---|\n", 1)[1].split("\n\n", 1)[0]
    listed = {}
    for line in table.splitlines():
        commands, keys = line.strip("|").split("|")
        for command in re.findall(r"`([^`]+)`", commands):
            assert command not in listed, f"README lists {command} twice"
            listed[command] = tuple(re.findall(r"`([^`]+)`", keys))
    assert listed == {
        command: tuple(o.name for o in cli.OPTIONS if command in o.commands)
        for command in cli.COMMANDS
    }
