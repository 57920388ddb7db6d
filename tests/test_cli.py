import json
import math

import pytest

from swarmfl import cli, experiments
from swarmfl.cli import main
from swarmfl.swarm import ALGORITHM_NAMES


@pytest.fixture
def tiny_config_file(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(
        json.dumps(
            {
                "experiment": "fixed",
                "algorithms": ["gwo"],
                "client_counts": [4],
                "epochs": 2,
                "runs": 2,
                "optimizer": {"population": 4, "iterations": 5},
                "dataset": {
                    "n_train_per_client": 20,
                    "n_test": 100,
                    "n_features": 3,
                },
            }
        ),
        encoding="utf-8",
    )
    return path


def test_list_algorithms(capsys):
    assert main(["list-algorithms"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines() == list(ALGORITHM_NAMES)


def test_validate_good_config(tiny_config_file, capsys):
    assert main(["validate", "--config", str(tiny_config_file)]) == 0
    out = capsys.readouterr().out
    assert "ok: fixed experiment, 1 configurations" in out
    assert "clients=4,epochs=2" in out


def test_validate_bad_config(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"experiment": "fixed", "bogus": 1}), encoding="utf-8")
    assert main(["validate", "--config", str(bad)]) == 1
    err = capsys.readouterr().err
    assert "config error: unknown config key: bogus" in err


@pytest.mark.parametrize(
    "entry",
    [{"runs": True}, {"noise_levels": 0.5}, {"dataset": {"n_test": "abc"}}],
    ids=["runs-bool", "noise_levels-scalar", "dataset-n_test-string"],
)
def test_validate_wrong_json_type_is_exit_one(entry, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"experiment": "fixed", **entry}), encoding="utf-8")
    assert main(["validate", "--config", str(bad)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("config error: ")
    assert "Traceback" not in captured.err
    assert captured.out == ""


def test_validate_out_of_range_value_is_exit_one(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(
        json.dumps({"experiment": "fixed", "optimizer": {"population": 0}}),
        encoding="utf-8",
    )
    assert main(["validate", "--config", str(bad)]) == 1
    captured = capsys.readouterr()
    assert captured.err == "config error: population must be >= 2\n"
    assert captured.out == ""


@pytest.mark.parametrize(
    "entry, repeated",
    [
        ({"experiment": "noise", "noise_levels": [0.251, 0.254]}, "noise=0.25"),
        ({"experiment": "fixed", "client_counts": [5, 5]}, "clients=5,epochs=10"),
    ],
    ids=["noise-levels-round-alike", "client-counts-repeated"],
)
def test_validate_repeated_cell_label_is_exit_one(entry, repeated, tmp_path, capsys):
    # Cells that share a label would share summary rows and trace files.
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(entry), encoding="utf-8")
    assert main(["validate", "--config", str(bad)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("config error: grid cells share a label: ")
    assert repeated in captured.err
    assert captured.out == ""


def test_validate_repeated_algorithm_is_exit_one(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(
        json.dumps({"experiment": "fixed", "algorithms": ["gwo", "pso", "gwo"]}),
        encoding="utf-8",
    )
    assert main(["validate", "--config", str(bad)]) == 1
    captured = capsys.readouterr()
    assert captured.err == "config error: algorithms repeated: gwo\n"
    assert captured.out == ""


@pytest.mark.parametrize("experiment", ["fixed", "noniid", "dynamic"])
def test_noise_levels_outside_the_noise_family_is_exit_one(experiment, tmp_path, capsys):
    # Outside the noise family the levels would be written to manifest.json
    # and used by no cell.
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"experiment": experiment, "noise_levels": [0.9]}), "utf-8")
    out_dir = tmp_path / "x"
    for args in (
        ["validate", "--config", str(bad)],
        ["run", "--config", str(bad), "--out", str(out_dir)],
    ):
        assert main(args) == 1
        captured = capsys.readouterr()
        assert captured.err == "config error: noise_levels only applies to noise experiments\n"
        assert captured.out == ""
    assert not out_dir.exists()


def test_default_noise_levels_are_accepted_outside_the_noise_family(
    tiny_config_file, tmp_path, capsys
):
    config = json.loads(tiny_config_file.read_text(encoding="utf-8"))
    config["noise_levels"] = [0.25, 0.5]
    tiny_config_file.write_text(json.dumps(config), encoding="utf-8")
    out_dir = tmp_path / "x"
    assert main(["run", "--config", str(tiny_config_file), "--out", str(out_dir)]) == 0
    capsys.readouterr()
    manifest = json.loads((out_dir / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["config"]["noise_levels"] == [0.25, 0.5]


@pytest.mark.parametrize(
    "value, shown",
    [
        (float("nan"), "nan"),
        (float("inf"), "inf"),
        (float("-inf"), "-inf"),
        (10**400, "1" + "0" * 17 + "..." + "0" * 19),  # echoed cut short
    ],
    ids=["NaN", "Infinity", "-Infinity", "10**400"],
)
@pytest.mark.parametrize(
    "entry, key",
    [
        (lambda v: {"lr": v}, "lr"),
        (lambda v: {"weights": {"w1": v, "w2": 1.0, "w3": 0.1}}, "weights.w1"),
        (lambda v: {"partition": {"mode": "dirichlet", "alpha": v}}, "partition.alpha"),
        (lambda v: {"experiment": "noise", "noise_levels": [0.25, v]}, "noise_levels[1]"),
    ],
    ids=["lr", "weights-w1", "partition-alpha", "noise_levels-element"],
)
def test_non_finite_config_number_is_exit_one(
    entry, key, value, shown, tiny_config_file, tmp_path, capsys
):
    # json.load accepts the NaN, Infinity and -Infinity literals json.dumps writes,
    # and integers that no float can hold.
    config = json.loads(tiny_config_file.read_text(encoding="utf-8"))
    config.update(entry(value))
    tiny_config_file.write_text(json.dumps(config), encoding="utf-8")
    out_dir = tmp_path / "x"
    for args in (
        ["validate", "--config", str(tiny_config_file)],
        ["run", "--config", str(tiny_config_file), "--out", str(out_dir)],
    ):
        assert main(args) == 1
        captured = capsys.readouterr()
        assert captured.err == f"config error: {key} must be a finite number, got {shown}\n"
        assert captured.out == ""
    assert not out_dir.exists()


# The number keys with an upper limit of 1e6, each as a config entry.
LIMITED_KEYS = {
    "lr": lambda v: {"lr": v},
    "coverage_bonus": lambda v: {"coverage_bonus": v},
    "w1": lambda v: {"weights": {"w1": v, "w2": 1.0, "w3": 0.1}},
    "w2": lambda v: {"weights": {"w1": 1.0, "w2": v, "w3": 0.1}},
    "w3": lambda v: {"weights": {"w1": 1.0, "w2": 1.0, "w3": v}},
}


@pytest.mark.parametrize("value", [math.nextafter(1e6, math.inf), 1.8e307],
                         ids=["next-float", "1.8e307"])
@pytest.mark.parametrize("key", LIMITED_KEYS)
def test_number_above_its_limit_is_exit_one(key, value, tiny_config_file, tmp_path, capsys):
    # lr 1e307 with batch size 1, or w3 1.8e307, once passed validate and then
    # failed every session with a FloatingPointError (exit 2).
    config = json.loads(tiny_config_file.read_text(encoding="utf-8"))
    config.update(LIMITED_KEYS[key](value), batch_size=1)
    tiny_config_file.write_text(json.dumps(config), encoding="utf-8")
    out_dir = tmp_path / "x"
    for args in (
        ["validate", "--config", str(tiny_config_file)],
        ["run", "--config", str(tiny_config_file), "--out", str(out_dir)],
    ):
        assert main(args) == 1
        captured = capsys.readouterr()
        assert captured.err == f"config error: {key} must be <= 1e6, got {value}\n"
        assert captured.out == ""
    assert not out_dir.exists()


@pytest.mark.parametrize("key", LIMITED_KEYS)
def test_number_at_its_limit_runs(key, tiny_config_file, tmp_path, capsys):
    config = json.loads(tiny_config_file.read_text(encoding="utf-8"))
    config.update(LIMITED_KEYS[key](1e6), batch_size=1)
    tiny_config_file.write_text(json.dumps(config), encoding="utf-8")
    out_dir = tmp_path / "x"
    assert main(["validate", "--config", str(tiny_config_file)]) == 0
    assert main(["run", "--config", str(tiny_config_file), "--out", str(out_dir)]) == 0
    assert capsys.readouterr().err == ""
    assert (out_dir / "summary.csv").is_file()


# Counts above their limit of 10**6: just past it, and far past it, where a
# 4,001-digit client count once became a cell label and runs passed validate.
COUNT_ENTRIES = {
    "runs-next": ({"runs": 10**6 + 1}, "runs must be <= 1000000, got 1000001"),
    "runs-huge": (
        {"runs": 10**4000},
        "runs must be <= 1000000, got 100000000000000000...0000000000000000000",
    ),
    "clients-next": (
        {"client_counts": [4, 10**6 + 1]},
        "client counts must be <= 1000000, got 1000001",
    ),
    "clients-huge": (
        {"client_counts": [10**4000]},
        "client counts must be <= 1000000, got 100000000000000000...0000000000000000000",
    ),
}


def refuse_to_run(config, parallel=1):
    raise AssertionError("a grid past a count limit must not start")


@pytest.mark.parametrize("entry", COUNT_ENTRIES)
def test_count_above_its_limit_is_exit_one(
    entry, tiny_config_file, tmp_path, monkeypatch, capsys
):
    monkeypatch.setattr(cli, "run_experiment", refuse_to_run)
    change, message = COUNT_ENTRIES[entry]
    config = json.loads(tiny_config_file.read_text(encoding="utf-8"))
    config.update(change)
    tiny_config_file.write_text(json.dumps(config), encoding="utf-8")
    out_dir = tmp_path / "x"
    for args in (
        ["validate", "--config", str(tiny_config_file)],
        ["run", "--config", str(tiny_config_file), "--out", str(out_dir)],
    ):
        assert main(args) == 1
        captured = capsys.readouterr()
        assert captured.err == f"config error: {message}\n"
        assert captured.out == ""
    assert not out_dir.exists()


def test_runs_override_above_its_limit_is_exit_one(
    tiny_config_file, tmp_path, monkeypatch, capsys
):
    monkeypatch.setattr(cli, "run_experiment", refuse_to_run)
    out_dir = tmp_path / "x"
    args = ["run", "--config", str(tiny_config_file), "--out", str(out_dir)]
    assert main(args + ["--runs", str(10**6 + 1)]) == 1
    assert capsys.readouterr().err == "config error: runs must be <= 1000000, got 1000001\n"
    assert not out_dir.exists()


def test_counts_at_their_limit_pass_validate(tiny_config_file, capsys):
    config = json.loads(tiny_config_file.read_text(encoding="utf-8"))
    config.update(runs=10**6, client_counts=[4, 10**6])
    tiny_config_file.write_text(json.dumps(config), encoding="utf-8")
    assert main(["validate", "--config", str(tiny_config_file)]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert "clients=1000000,epochs=2" in captured.out


def test_run_writes_reports(tiny_config_file, tmp_path, capsys):
    out_dir = tmp_path / "results"
    assert main(["run", "--config", str(tiny_config_file), "--out", str(out_dir)]) == 0
    stdout = capsys.readouterr().out
    assert f"wrote {out_dir / 'summary.csv'}" in stdout
    assert (out_dir / "summary.csv").is_file()
    assert (out_dir / "manifest.json").is_file()
    assert len(list((out_dir / "rounds").iterdir())) == 2


def test_run_seed_and_runs_overrides_change_output(tiny_config_file, tmp_path, capsys):
    base = tmp_path / "base"
    reseeded = tmp_path / "reseeded"
    assert main(["run", "--config", str(tiny_config_file), "--out", str(base)]) == 0
    assert (
        main(
            [
                "run", "--config", str(tiny_config_file), "--out", str(reseeded),
                "--seed", "99", "--runs", "3",
            ]
        )
        == 0
    )
    capsys.readouterr()
    assert len(list((reseeded / "rounds").iterdir())) == 3
    assert (base / "summary.csv").read_bytes() != (reseeded / "summary.csv").read_bytes()


def test_run_algorithm_subset(tiny_config_file, tmp_path, capsys):
    out_dir = tmp_path / "subset"
    config = json.loads(tiny_config_file.read_text(encoding="utf-8"))
    config["algorithms"] = ["gwo", "pso"]
    tiny_config_file.write_text(json.dumps(config), encoding="utf-8")
    assert (
        main(
            [
                "run", "--config", str(tiny_config_file), "--out", str(out_dir),
                "--algorithms", "pso",
            ]
        )
        == 0
    )
    capsys.readouterr()
    names = [p.name for p in (out_dir / "rounds").iterdir()]
    assert names and all(name.startswith("pso__") for name in names)


def test_run_rejects_unknown_algorithm_override(tiny_config_file, tmp_path, capsys):
    code = main(
        [
            "run", "--config", str(tiny_config_file), "--out", str(tmp_path / "x"),
            "--algorithms", "gwo,annealing",
        ]
    )
    assert code == 1
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("path", ["config", "override"])
def test_run_rejects_repeated_algorithm(path, tiny_config_file, tmp_path, capsys):
    out_dir = tmp_path / "x"
    args = ["run", "--config", str(tiny_config_file), "--out", str(out_dir)]
    if path == "config":
        config = json.loads(tiny_config_file.read_text(encoding="utf-8"))
        config["algorithms"] = ["gwo", "gwo"]
        tiny_config_file.write_text(json.dumps(config), encoding="utf-8")
    else:
        args += ["--algorithms", "gwo,gwo"]
    assert main(args) == 1
    assert capsys.readouterr().err == "config error: algorithms repeated: gwo\n"
    assert not out_dir.exists()


def test_run_rejects_bad_parallel(tiny_config_file, tmp_path, capsys):
    code = main(
        [
            "run", "--config", str(tiny_config_file), "--out", str(tmp_path / "x"),
            "--parallel", "0",
        ]
    )
    assert code == 1
    assert "config error: --parallel must be >= 1" in capsys.readouterr().err


def test_run_rejects_seed_outside_uint64(tiny_config_file, tmp_path, capsys):
    out_dir = tmp_path / "x"
    args = ["run", "--config", str(tiny_config_file), "--out", str(out_dir)]
    assert main(args + ["--seed", str(2**64)]) == 1
    assert (
        capsys.readouterr().err
        == "config error: base_seed must be an unsigned 64-bit integer\n"
    )
    assert not out_dir.exists()


def test_run_refuses_a_used_out_dir(tiny_config_file, tmp_path, monkeypatch, capsys):
    # A rerun into the same --out would leave the first run's round files behind.
    out_dir = tmp_path / "out"
    args = ["run", "--config", str(tiny_config_file), "--out", str(out_dir)]
    assert main(args) == 0
    before = {p: p.read_bytes() for p in out_dir.rglob("*") if p.is_file()}
    capsys.readouterr()

    def run_experiment(*args, **kwargs):
        raise AssertionError("no session may run")

    monkeypatch.setattr("swarmfl.cli.run_experiment", run_experiment)
    assert main(args + ["--runs", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.err == (
        f"config error: output path exists and is not an empty directory: {out_dir}\n"
    )
    assert captured.out == ""
    assert {p: p.read_bytes() for p in out_dir.rglob("*") if p.is_file()} == before


def test_run_accepts_an_empty_out_dir(tiny_config_file, tmp_path, capsys):
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    assert main(["run", "--config", str(tiny_config_file), "--out", str(out_dir)]) == 0
    capsys.readouterr()
    assert (out_dir / "summary.csv").is_file()


def test_run_missing_config_file(tmp_path, capsys):
    code = main(["run", "--config", str(tmp_path / "none.json"), "--out", str(tmp_path / "x")])
    assert code == 1
    assert "config error: cannot read config file" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["validate", "run"])
@pytest.mark.parametrize(
    "content, message",
    [
        # A UTF-16 byte-order mark is not UTF-8.
        (b"\xff\xfe{}", "config error: config is not UTF-8 text: "),
        # Deeper than the JSON decoder's recursion allows.
        (b"[" * 100_000, "config error: config is not valid JSON: nested too deeply\n"),
        # Longer than the 4,300 digits Python converts to an int by default.
        (b'{"runs": ' + b"7" * 4400 + b"}", "config error: config has a number too long to read: "),
    ],
    ids=["not-utf8", "deep", "long-integer"],
)
def test_unreadable_config_is_exit_one(command, content, message, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    out_dir = tmp_path / "out"
    argv = [command, "--config", str(bad)]
    if command == "run":
        argv += ["--out", str(out_dir)]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(message)
    assert "Traceback" not in captured.err
    assert captured.out == ""
    assert not out_dir.exists()


def nested_list(depth):
    value = []
    for _ in range(depth):
        value = [value]
    return value


@pytest.mark.parametrize(
    "entry",
    [
        {"runs": list(range(2000))},
        {"experiment": nested_list(900)},
        {"lr": "x" * 5000},
        {"lr": 10**4000},
        {"algorithms": {"gwo": list(range(2000))}},
        {"noise_levels": [0.25, ["z" * 5000]]},
        {"experiment": "x" * 5000},
        {"algorithms": ["y" * 5000]},
        {"experiment": "dynamic", "schedule_kind": "z" * 5000, "client_counts": None},
    ],
    ids=["integer", "string", "number", "finite", "array", "element", "experiment",
         "algorithm", "schedule_kind"],
)
def test_a_bad_value_is_echoed_short(entry, tiny_config_file, capsys):
    # A wrong value is echoed cut short, never whole: a 2,000-item list once
    # gave a multi-kilobyte error line.
    config = json.loads(tiny_config_file.read_text(encoding="utf-8"))
    config.update(entry)
    config = {key: value for key, value in config.items() if value is not None}
    tiny_config_file.write_text(json.dumps(config), encoding="utf-8")
    assert main(["validate", "--config", str(tiny_config_file)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert len(err) < 160, err


def test_run_output_failure_is_exit_two(tiny_config_file, tmp_path, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("a file, not a directory", encoding="utf-8")
    code = main(
        ["run", "--config", str(tiny_config_file), "--out", str(blocker / "sub")]
    )
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_run_output_failure_runs_no_session(tiny_config_file, tmp_path, monkeypatch, capsys):
    # An --out under a regular file can never be made, so no session may run first.
    seeds = []
    real_run_session = experiments.run_session

    def run_session(session, seed):
        seeds.append(seed)
        return real_run_session(session, seed)

    monkeypatch.setattr(experiments, "run_session", run_session)
    blocker = tmp_path / "blocker"
    blocker.write_text("a file, not a directory", encoding="utf-8")
    args = ["run", "--config", str(tiny_config_file), "--out", str(blocker / "sub")]
    assert main(args) == 2
    assert seeds == []
    assert capsys.readouterr().err.startswith("error: ")


def test_run_session_failure_is_exit_two(tiny_config_file, tmp_path, monkeypatch, capsys):
    def run_session(session, seed):
        raise ValueError("injected failure")

    monkeypatch.setattr("swarmfl.experiments.run_session", run_session)
    out = tmp_path / "out"
    code = main(["run", "--config", str(tiny_config_file), "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert "error: session failed: algorithm=gwo configuration='clients=4,epochs=2' run=0" in err
    assert not (out / "summary.csv").exists()


def test_run_parallel_matches_sequential(tiny_config_file, tmp_path, capsys):
    seq = tmp_path / "seq"
    par = tmp_path / "par"
    assert main(["run", "--config", str(tiny_config_file), "--out", str(seq)]) == 0
    assert (
        main(
            [
                "run", "--config", str(tiny_config_file), "--out", str(par),
                "--parallel", "4",
            ]
        )
        == 0
    )
    capsys.readouterr()
    assert (seq / "summary.csv").read_bytes() == (par / "summary.csv").read_bytes()
