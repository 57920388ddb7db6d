import concurrent.futures
import json
import pickle

import numpy as np
import pytest

from swarmfl import experiments
from swarmfl.datagen import DatasetSpec, PartitionSpec
from swarmfl.errors import ConfigError
from swarmfl.experiments import (
    ALGORITHM_INDEX,
    ExperimentConfig,
    aggregate_runs,
    emit_report,
    enumerate_configurations,
    hash64,
    load_config,
    parse_config,
    run_experiment,
    run_session_task,
    override,
)
from swarmfl.flsim import GlobalMetrics
from swarmfl.swarm import ALGORITHM_NAMES

_M = (1 << 64) - 1


def splitmix_oracle(*vals):
    h = 0x9E3779B97F4A7C15
    for v in vals:
        h = (h + (v & _M)) & _M
        h ^= h >> 30
        h = (h * 0xBF58476D1CE4E5B9) & _M
        h ^= h >> 27
        h = (h * 0x94D049BB133111EB) & _M
        h ^= h >> 31
    return h


def tiny_config(**kw):
    base = dict(
        experiment="fixed",
        algorithms=("gwo",),
        client_counts=(4,),
        epochs=2,
        runs=2,
        population=4,
        iterations=5,
        dataset=DatasetSpec(n_train_per_client=20, n_test=100, n_features=3),
    )
    base.update(kw)
    return ExperimentConfig(**base)


# --- seed derivation ------------------------------------------------------------


def test_hash64_frozen_values():
    assert hash64(0, 0, 0, 0) == 1826112205991530872
    assert hash64(1, 2, 3, 4) == 2108819250477734150
    assert hash64((1 << 64) - 1) == 16490336266968443936


def test_hash64_matches_independent_splitmix_chain():
    rng = np.random.default_rng(61)
    for _ in range(200):
        vals = [int(v) for v in rng.integers(0, 1 << 63, size=rng.integers(1, 6))]
        assert hash64(*vals) == splitmix_oracle(*vals)


def test_hash64_is_order_sensitive_and_collision_free_on_the_grid():
    assert hash64(0, 1) != hash64(1, 0)
    seeds = {
        hash64(0, a, c, r)
        for a in range(len(ALGORITHM_NAMES))
        for c in range(6)
        for r in range(30)
    }
    assert len(seeds) == 9 * 6 * 30


def test_algorithm_index_is_frozen():
    assert ALGORITHM_INDEX == {
        "gwo": 0,
        "pso": 1,
        "cuckoo": 2,
        "bat": 3,
        "bee": 4,
        "aco": 5,
        "fish": 6,
        "glowworm": 7,
        "iwd": 8,
    }


# --- configuration grids ----------------------------------------------------------


def test_fixed_experiment_default_grid():
    cells = enumerate_configurations(ExperimentConfig(experiment="fixed"))
    assert [c.label for c in cells] == [
        "clients=5,epochs=10",
        "clients=5,epochs=15",
        "clients=10,epochs=10",
        "clients=10,epochs=15",
        "clients=25,epochs=10",
        "clients=25,epochs=15",
    ]
    for cell in cells:
        assert cell.session.schedule.kind == "fixed"
        assert cell.session.partition.mode == "iid"
        assert cell.session.noise.level == 0.0


def test_dynamic_experiment_default_grid():
    cells = enumerate_configurations(ExperimentConfig(experiment="dynamic"))
    assert [c.label for c in cells] == ["schedule=increasing", "schedule=decreasing"]
    up, down = (cell.session.schedule for cell in cells)
    assert (up.start, up.end, up.epochs) == (5, 25, 20)
    assert (down.start, down.end, down.epochs) == (25, 5, 20)


def test_noniid_experiment_default_grid():
    cells = enumerate_configurations(ExperimentConfig(experiment="noniid"))
    assert [c.label for c in cells] == ["clients=5", "clients=15", "clients=25"]
    for cell in cells:
        assert cell.session.partition.mode == "dirichlet"
        assert cell.session.schedule.epochs == 10


def test_noise_experiment_default_grid():
    cells = enumerate_configurations(ExperimentConfig(experiment="noise"))
    assert [c.label for c in cells] == ["noise=0.25", "noise=0.50"]
    for cell in cells:
        assert cell.session.schedule.start == 25
        assert cell.session.schedule.epochs == 10
    assert [c.session.noise.level for c in cells] == [0.25, 0.5]


def test_experiment_config_validation():
    with pytest.raises(ConfigError):
        ExperimentConfig(experiment="ablation")
    with pytest.raises(ConfigError):
        ExperimentConfig(experiment="fixed", algorithms=())
    with pytest.raises(ConfigError):
        ExperimentConfig(experiment="fixed", algorithms=("gwo", "simulated_annealing"))
    with pytest.raises(ConfigError):
        ExperimentConfig(experiment="fixed", runs=0)
    with pytest.raises(ConfigError):
        ExperimentConfig(experiment="fixed", epochs=0)
    with pytest.raises(ConfigError):
        ExperimentConfig(experiment="fixed", schedule_kind="increasing")
    with pytest.raises(ConfigError):
        ExperimentConfig(experiment="dynamic", schedule_kind="sideways")
    with pytest.raises(ConfigError):
        ExperimentConfig(experiment="dynamic", client_counts=(5,))
    with pytest.raises(ConfigError):
        ExperimentConfig(experiment="noise", client_counts=(5, 10))
    with pytest.raises(ConfigError):
        ExperimentConfig(experiment="noise", noise_levels=(0.5, 1.5))
    with pytest.raises(ConfigError, match="noise_levels must be nonempty"):
        ExperimentConfig(experiment="noise", noise_levels=())
    with pytest.raises(ConfigError):
        ExperimentConfig(experiment="fixed", client_counts=(1,))
    with pytest.raises(ConfigError, match="client_counts must be nonempty"):
        ExperimentConfig(experiment="fixed", client_counts=())
    for seed in (-1, 2**64):
        with pytest.raises(ConfigError, match="base_seed must be an unsigned 64-bit integer"):
            ExperimentConfig(experiment="fixed", base_seed=seed)


# --- aggregation -------------------------------------------------------------------


def test_aggregate_runs_hand_case():
    metrics = [GlobalMetrics(accuracy=a, recall=a, f1=a) for a in (0.7, 0.8, 0.9)]
    mean, sd = aggregate_runs(metrics)
    assert mean.accuracy == pytest.approx(0.8, abs=1e-12)
    assert sd.accuracy == pytest.approx(0.081650, abs=1e-6)
    assert sd.accuracy == pytest.approx((0.02 / 3) ** 0.5, abs=1e-12)


def test_aggregate_runs_single_run_has_zero_spread():
    mean, sd = aggregate_runs([GlobalMetrics(accuracy=0.6, recall=0.5, f1=0.4)])
    assert (mean.accuracy, mean.recall, mean.f1) == (0.6, 0.5, 0.4)
    assert (sd.accuracy, sd.recall, sd.f1) == (0.0, 0.0, 0.0)


def test_aggregate_runs_rejects_empty():
    with pytest.raises(ValueError):
        aggregate_runs([])


# --- experiment execution --------------------------------------------------------------


def test_run_experiment_shape_and_determinism():
    config = tiny_config()
    table = run_experiment(config)
    assert len(table.rows) == 1
    assert len(table.traces) == 2
    row = table.rows[0]
    assert row.algorithm == "gwo"
    assert row.configuration == "clients=4,epochs=2"
    assert 0.0 <= row.accuracy <= 1.0
    for trace in table.traces:
        assert len(trace.records) == 2
        assert trace.seed == hash64(0, ALGORITHM_INDEX["gwo"], 0, trace.run)
    assert run_experiment(config) == table


def test_run_experiment_parallel_matches_sequential():
    config = tiny_config(algorithms=("gwo", "pso"))
    assert run_experiment(config, parallel=4) == run_experiment(config, parallel=1)


@pytest.mark.parametrize("cores, widths", [(3, [3]), (1, []), (None, [])])
def test_run_experiment_caps_workers_at_core_count(cores, widths, monkeypatch):
    config = tiny_config(algorithms=("gwo", "pso"))
    sequential = run_experiment(config)
    seen = []

    class InlinePool:
        """Records the pool width and maps in sequence: no process starts."""

        def __init__(self, max_workers, mp_context):
            assert mp_context.get_start_method() == "spawn"
            seen.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    monkeypatch.setattr(experiments.os, "cpu_count", lambda: cores)
    assert run_experiment(config, parallel=10**6) == sequential
    assert seen == widths


def test_run_experiment_names_the_failed_session(monkeypatch):
    config = tiny_config(algorithms=("gwo", "pso"))
    seed = hash64(0, ALGORITHM_INDEX["pso"], 0, 1)
    real = experiments.run_session

    def run_session(session, session_seed):
        if session_seed == seed:
            raise ValueError("injected failure")
        return real(session, session_seed)

    monkeypatch.setattr(experiments, "run_session", run_session)
    expected = (
        r"^session failed: algorithm=pso configuration='clients=4,epochs=2' "
        rf"run=1 seed={seed}: ValueError: injected failure$"
    )
    with pytest.raises(RuntimeError, match=expected) as info:
        run_experiment(config)
    assert isinstance(info.value.__cause__, ValueError)


@pytest.mark.parametrize("parallel", [1, 2])
def test_a_failed_session_names_its_cause_on_every_path(parallel):
    # A process pool does not carry __cause__ back, so the message must.  Every
    # weight a config accepts is far from overflow, so w3 is pushed past its
    # limit after the check; each session's config, pickled or not, shares it.
    config = tiny_config(experiment="noise", noise_levels=(0.25,))
    object.__setattr__(config.weights, "w3", 1.8e307)
    with pytest.raises(RuntimeError, match=r"^session failed: .*: FloatingPointError: "):
        run_experiment(config, parallel=parallel)


def test_run_session_task_survives_pickle():
    config = tiny_config()
    cell = enumerate_configurations(config)[0]
    seed = hash64(0, ALGORITHM_INDEX["gwo"], 0, 0)
    task = ("gwo", cell.label, 0, seed, cell.session)
    function, copy = pickle.loads(pickle.dumps((run_session_task, task)))
    assert copy == task
    assert tuple(function(copy)) == run_experiment(config).traces[0].records


def test_run_experiment_rows_stable_under_ablation():
    both = run_experiment(tiny_config(algorithms=("gwo", "pso")))
    solo = run_experiment(tiny_config(algorithms=("pso",)))
    pso_rows = [r for r in both.rows if r.algorithm == "pso"]
    assert pso_rows == list(solo.rows)


def test_run_experiment_orders_algorithms_canonically():
    table = run_experiment(tiny_config(algorithms=("pso", "gwo")))
    assert [r.algorithm for r in table.rows] == ["gwo", "pso"]


# --- report emission ---------------------------------------------------------------------


def test_emit_report_files_and_formats(tmp_path):
    table = run_experiment(tiny_config())
    out = emit_report(table, tmp_path / "out")
    summary = (out / "summary.csv").read_text(encoding="utf-8")
    lines = summary.split("\n")
    assert lines[0] == "algorithm,configuration,accuracy,recall,f1,accuracy_sd,recall_sd,f1_sd"
    assert lines[1].startswith('gwo,"clients=4,epochs=2",')
    cells = lines[1].rsplit(",", 6)
    for value in cells[1:]:
        assert len(value.split(".")[1]) == 6

    rounds = sorted(p.name for p in (out / "rounds").iterdir())
    assert rounds == [
        "gwo__clients-4-epochs-2__run00.csv",
        "gwo__clients-4-epochs-2__run01.csv",
    ]
    first = (out / "rounds" / rounds[0]).read_text(encoding="utf-8").split("\n")
    assert first[0] == "epoch,available,selected_count,accuracy,recall,f1"
    assert first[1].startswith("0,4,2,")

    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["cells"] == ["clients=4,epochs=2"]
    assert len(manifest["seeds"]) == 2
    assert manifest["config"]["experiment"] == "fixed"


def test_emit_report_is_byte_identical_across_runs(tmp_path):
    config = tiny_config()
    emit_report(run_experiment(config), tmp_path / "a")
    emit_report(run_experiment(config), tmp_path / "b")
    for name in ("summary.csv", "manifest.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    a_rounds = sorted((tmp_path / "a" / "rounds").iterdir())
    b_rounds = sorted((tmp_path / "b" / "rounds").iterdir())
    assert [p.name for p in a_rounds] == [p.name for p in b_rounds]
    for pa, pb in zip(a_rounds, b_rounds):
        assert pa.read_bytes() == pb.read_bytes()


@pytest.mark.parametrize("kind", ["nonempty-dir", "file"])
def test_emit_report_refuses_a_used_out_dir(kind, tmp_path):
    # A report written over an older one would leave its round files behind.
    table = run_experiment(tiny_config())
    out = tmp_path / "out"
    if kind == "file":
        out.write_text("old", encoding="utf-8")
    else:
        (out / "rounds").mkdir(parents=True)
        (out / "rounds" / "old.csv").write_text("old", encoding="utf-8")
    before = sorted(p.relative_to(tmp_path) for p in tmp_path.rglob("*"))
    with pytest.raises(FileExistsError, match=f"not an empty directory: {out}"):
        emit_report(table, out)
    assert sorted(p.relative_to(tmp_path) for p in tmp_path.rglob("*")) == before


# --- config parsing -------------------------------------------------------------------------


def test_parse_config_minimal_and_full():
    assert parse_config({"experiment": "fixed"}).experiment == "fixed"
    config = parse_config(
        {
            "experiment": "noise",
            "algorithms": ["gwo", "bat"],
            "client_counts": [25],
            "epochs": 10,
            "noise_levels": [0.1, 0.2],
            "runs": 3,
            "base_seed": 42,
            "partition": {"mode": "dirichlet", "alpha": 0.7},
            "weights": {"w1": 2.0, "w2": 1.0, "w3": 0.5},
            "optimizer": {"population": 10, "iterations": 50},
            "dataset": {"n_train_per_client": 100, "n_test": 500, "n_features": 8,
                        "class_separation": 1.5},
            "select_fraction": 0.5,
            "lr": 0.05,
            "batch_size": 16,
        }
    )
    assert config.algorithms == ("gwo", "bat")
    assert config.noise_levels == (0.1, 0.2)
    assert config.partition == PartitionSpec(mode="dirichlet", alpha=0.7)
    assert config.weights.w1 == 2.0
    assert config.population == 10
    assert config.dataset.n_features == 8


def test_parse_config_unknown_keys():
    with pytest.raises(ConfigError, match="unknown config key: extra"):
        parse_config({"experiment": "fixed", "extra": 1})
    with pytest.raises(ConfigError, match="unknown config key: partition.bogus"):
        parse_config({"experiment": "fixed", "partition": {"bogus": 1}})
    with pytest.raises(ConfigError, match="unknown config key: optimizer.seed"):
        parse_config({"experiment": "fixed", "optimizer": {"seed": 3}})


def test_parse_config_structural_errors():
    with pytest.raises(ConfigError, match="missing required config key"):
        parse_config({"runs": 3})
    with pytest.raises(ConfigError):
        parse_config(["experiment", "fixed"])
    with pytest.raises(ConfigError):
        parse_config({"experiment": "fixed", "weights": {"w1": -1.0}})
    with pytest.raises(ConfigError):
        parse_config({"experiment": "fixed", "partition": "iid"})


@pytest.mark.parametrize(
    "entry, message",
    [
        ({"runs": 2.7}, "runs must be an integer"),
        ({"runs": True}, "runs must be an integer"),
        ({"epochs": "3"}, "epochs must be an integer"),
        ({"lr": "0.1"}, "lr must be a number"),
        ({"select_fraction": False}, "select_fraction must be a number"),
        ({"algorithms": "gwo"}, "algorithms must be an array"),
        ({"algorithms": ["gwo", ["pso"]]}, r"algorithms\[1\] must be a string"),
        ({"client_counts": [4.0]}, r"client_counts\[0\] must be an integer"),
        ({"noise_levels": 0.5}, "noise_levels must be an array"),
        ({"noise_levels": [0.5, "0.25"]}, r"noise_levels\[1\] must be a number"),
        ({"dataset": {"n_test": "abc"}}, "dataset.n_test must be an integer"),
        ({"dataset": {"class_separation": "2"}}, "dataset.class_separation must be a number"),
        ({"weights": {"w1": "x"}}, "weights.w1 must be a number"),
        ({"partition": {"alpha": True}}, "partition.alpha must be a number"),
        ({"optimizer": {"population": 2.5}}, "optimizer.population must be an integer"),
        ({"schedule_kind": ["increasing"]}, "schedule_kind must be a string"),
    ],
    ids=[
        "runs-float",
        "runs-bool",
        "epochs-string",
        "lr-string",
        "select_fraction-bool",
        "algorithms-string",
        "algorithms-nested-list",
        "client_counts-float",
        "noise_levels-scalar",
        "noise_levels-string-item",
        "dataset-n_test-string",
        "dataset-class_separation-string",
        "weights-w1-string",
        "partition-alpha-bool",
        "optimizer-population-float",
        "schedule_kind-list",
    ],
)
def test_parse_config_rejects_wrong_json_types(entry, message):
    with pytest.raises(ConfigError, match=message):
        parse_config({"experiment": "fixed", **entry})


@pytest.mark.parametrize(
    "entry, message",
    [
        ({"optimizer": {"population": 0}}, "population must be >= 2"),
        ({"optimizer": {"iterations": 0}}, "iterations must be >= 1"),
        ({"batch_size": 0}, "batch_size must be >= 1"),
        ({"select_fraction": 5.0}, r"select_fraction must be in \(0, 1\]"),
        ({"lr": -1.0}, "lr must be > 0"),
        ({"coverage_bonus": -1.0}, "coverage_bonus must be nonnegative"),
    ],
    ids=[
        "population-0",
        "iterations-0",
        "batch_size-0",
        "select_fraction-5",
        "lr-negative",
        "coverage_bonus-negative",
    ],
)
def test_parse_config_rejects_out_of_range_session_values(entry, message):
    with pytest.raises(ConfigError, match=message):
        parse_config({"experiment": "fixed", **entry})


def test_parse_config_number_keys_take_integers():
    config = parse_config(
        {
            "experiment": "noise",
            "lr": 1,
            "noise_levels": [0, 1],
            "weights": {"w1": 2, "w2": 1.0, "w3": 0},
            "dataset": {"class_separation": 3},
        }
    )
    assert config.lr == 1.0 and isinstance(config.lr, float)
    assert config.noise_levels == (0.0, 1.0)
    assert config.weights.w1 == 2
    assert config.dataset.class_separation == 3
    # manifest.json writes the config back, so an integer stays one.
    assert type(config.weights.w1) is int and type(config.dataset.class_separation) is int


def test_parse_config_turns_spec_type_errors_into_config_errors(monkeypatch):
    def raising(**kwargs):
        raise TypeError("unsupported operand")

    monkeypatch.setattr("swarmfl.experiments.FitnessWeights", raising)
    with pytest.raises(ConfigError, match="unsupported operand"):
        parse_config({"experiment": "fixed", "weights": {"w1": 1.0}})


def test_load_config_round_trip_and_errors(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"experiment": "dynamic", "runs": 2}), encoding="utf-8")
    config = load_config(path)
    assert config.experiment == "dynamic"
    assert config.runs == 2
    with pytest.raises(ConfigError, match="cannot read config file"):
        load_config(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_config(bad)


def test_override_replaces_only_given_fields():
    config = tiny_config()
    changed = override(config, runs=7, base_seed=None)
    assert changed.runs == 7
    assert changed.base_seed == config.base_seed
    assert override(config) == config
