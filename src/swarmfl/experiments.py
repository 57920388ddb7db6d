"""Config-driven experiment grids with deterministic seeding and CSV reports.

Four experiment families are supported: fixed client counts, dynamic
(growing or shrinking) participation, non-IID class mixes, and noisy
self-reporting.  Every (algorithm, configuration, run) cell derives its own
64-bit seed from the base seed, so results are reproducible cell-by-cell and
independent of execution order or parallelism.
"""

from __future__ import annotations

import csv
import json
import re
import statistics
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

from .datagen import (
    DatasetSpec,
    NoiseSpec,
    ParticipationSchedule,
    PartitionSpec,
)
from .errors import ConfigError
from .fitness import FitnessWeights
from .flsim import GlobalMetrics, SessionConfig, run_session
from .swarm import ALGORITHM_NAMES, OptimizerParams

__all__ = [
    "ALGORITHM_INDEX",
    "Configuration",
    "ExperimentConfig",
    "ReportRow",
    "ReportTable",
    "RunTrace",
    "aggregate_runs",
    "hash64",
    "enumerate_configurations",
    "load_config",
    "run_experiment",
    "emit_report",
]

# Fixed algorithm identities used in seed derivation.  These never change,
# even when a run restricts itself to a subset of algorithms, so per-cell
# seeds are stable under ablation.
ALGORITHM_INDEX = {name: i for i, name in enumerate(ALGORITHM_NAMES)}

_MASK64 = (1 << 64) - 1

EXPERIMENTS = ("fixed", "dynamic", "noniid", "noise")

_DEFAULT_CLIENTS = {
    "fixed": (5, 10, 25),
    "noniid": (5, 15, 25),
    "noise": (25,),
}
_DEFAULT_EPOCHS = {"dynamic": 20, "noniid": 10, "noise": 10}
_FIXED_EPOCH_GRID = (10, 15)
_DYNAMIC_BOUNDS = (5, 25)


def hash64(*values: int) -> int:
    """Mix integers into one uint64 via a chained splitmix64 finalizer.

    Bit-exact definition: start from the golden-ratio constant
    0x9E3779B97F4A7C15; for each value v, compute (all mod 2^64)
    h += v; h ^= h >> 30; h *= 0xBF58476D1CE4E5B9; h ^= h >> 27;
    h *= 0x94D049BB133111EB; h ^= h >> 31.
    """
    h = 0x9E3779B97F4A7C15
    for v in values:
        h = (h + (int(v) & _MASK64)) & _MASK64
        h ^= h >> 30
        h = (h * 0xBF58476D1CE4E5B9) & _MASK64
        h ^= h >> 27
        h = (h * 0x94D049BB133111EB) & _MASK64
        h ^= h >> 31
    return h


@dataclass(frozen=True)
class Configuration:
    """One fully resolved scenario cell within an experiment grid."""

    label: str
    schedule: ParticipationSchedule
    partition: PartitionSpec
    noise: NoiseSpec


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    algorithms: tuple = ALGORITHM_NAMES
    client_counts: tuple | None = None
    epochs: int | None = None
    schedule_kind: str | None = None
    noise_levels: tuple = (0.25, 0.5)
    partition: PartitionSpec | None = None
    runs: int = 30
    base_seed: int = 0
    weights: FitnessWeights = field(default_factory=FitnessWeights)
    select_fraction: float = 0.4
    coverage_bonus: float = 0.0
    lr: float = 0.1
    batch_size: int = 32
    population: int = 20
    iterations: int = 100
    dataset: DatasetSpec = field(default_factory=DatasetSpec)

    def __post_init__(self) -> None:
        if self.experiment not in EXPERIMENTS:
            raise ConfigError(
                f"experiment must be one of {', '.join(EXPERIMENTS)}; "
                f"got {self.experiment!r}"
            )
        if not self.algorithms:
            raise ConfigError("algorithms must be a nonempty list")
        unknown = [a for a in self.algorithms if a not in ALGORITHM_INDEX]
        if unknown:
            raise ConfigError(f"unknown algorithms: {unknown}")
        if self.runs < 1:
            raise ConfigError("runs must be >= 1")
        if not 0 <= self.base_seed < 2**64:
            raise ConfigError("base_seed must be an unsigned 64-bit integer")
        if self.epochs is not None and self.epochs < 1:
            raise ConfigError("epochs must be >= 1")
        if self.schedule_kind is not None:
            if self.experiment != "dynamic":
                raise ConfigError("schedule_kind only applies to dynamic experiments")
            if self.schedule_kind not in ("increasing", "decreasing"):
                raise ConfigError(
                    "schedule_kind must be increasing or decreasing, "
                    f"got {self.schedule_kind!r}"
                )
        if self.client_counts is not None:
            if self.experiment == "dynamic":
                raise ConfigError("client_counts does not apply to dynamic experiments")
            if len(self.client_counts) == 0:
                raise ConfigError("client_counts must be nonempty")
            if any(c < 2 for c in self.client_counts):
                raise ConfigError("client counts must be >= 2")
            if self.experiment == "noise" and len(self.client_counts) != 1:
                raise ConfigError("noise experiments use a single client count")
        for level in self.noise_levels:
            if not 0.0 <= level <= 1.0:
                raise ConfigError(f"noise level out of [0,1]: {level}")


def enumerate_configurations(config: ExperimentConfig) -> list:
    """The deterministic, ordered list of scenario cells for a config."""
    iid = PartitionSpec(mode="iid")
    cells = []
    if config.experiment == "fixed":
        counts = config.client_counts or _DEFAULT_CLIENTS["fixed"]
        epoch_grid = (config.epochs,) if config.epochs else _FIXED_EPOCH_GRID
        for n in counts:
            for epochs in epoch_grid:
                cells.append(
                    Configuration(
                        label=f"clients={n},epochs={epochs}",
                        schedule=ParticipationSchedule("fixed", n, n, epochs),
                        partition=config.partition or iid,
                        noise=NoiseSpec(0.0),
                    )
                )
    elif config.experiment == "dynamic":
        epochs = config.epochs or _DEFAULT_EPOCHS["dynamic"]
        lo, hi = _DYNAMIC_BOUNDS
        kinds = (
            (config.schedule_kind,)
            if config.schedule_kind
            else ("increasing", "decreasing")
        )
        for kind in kinds:
            start, end = (lo, hi) if kind == "increasing" else (hi, lo)
            cells.append(
                Configuration(
                    label=f"schedule={kind}",
                    schedule=ParticipationSchedule(kind, start, end, epochs),
                    partition=config.partition or iid,
                    noise=NoiseSpec(0.0),
                )
            )
    elif config.experiment == "noniid":
        counts = config.client_counts or _DEFAULT_CLIENTS["noniid"]
        epochs = config.epochs or _DEFAULT_EPOCHS["noniid"]
        for n in counts:
            cells.append(
                Configuration(
                    label=f"clients={n}",
                    schedule=ParticipationSchedule("fixed", n, n, epochs),
                    partition=config.partition or PartitionSpec(mode="dirichlet"),
                    noise=NoiseSpec(0.0),
                )
            )
    else:  # noise
        (n,) = config.client_counts or _DEFAULT_CLIENTS["noise"]
        epochs = config.epochs or _DEFAULT_EPOCHS["noise"]
        for level in config.noise_levels:
            cells.append(
                Configuration(
                    label=f"noise={level:.2f}",
                    schedule=ParticipationSchedule("fixed", n, n, epochs),
                    partition=config.partition or iid,
                    noise=NoiseSpec(level),
                )
            )
    return cells


def session_config(
    config: ExperimentConfig, cell: Configuration, algorithm: str
) -> SessionConfig:
    return SessionConfig(
        schedule=cell.schedule,
        dataset=config.dataset,
        partition=cell.partition,
        noise=cell.noise,
        optimizer=OptimizerParams(
            algorithm=algorithm,
            population=config.population,
            iterations=config.iterations,
        ),
        weights=config.weights,
        select_fraction=config.select_fraction,
        coverage_bonus=config.coverage_bonus,
        lr=config.lr,
        batch_size=config.batch_size,
    )


@dataclass(frozen=True)
class RunTrace:
    algorithm: str
    configuration: str
    run: int
    seed: int
    records: tuple


@dataclass(frozen=True)
class ReportRow:
    algorithm: str
    configuration: str
    accuracy: float
    recall: float
    f1: float
    accuracy_sd: float
    recall_sd: float
    f1_sd: float


@dataclass(frozen=True)
class ReportTable:
    rows: tuple
    traces: tuple
    config: ExperimentConfig


def aggregate_runs(per_run_metrics) -> tuple:
    """Mean and population standard deviation of each metric across runs."""
    metrics = list(per_run_metrics)
    if not metrics:
        raise ValueError("aggregate_runs needs at least one run")
    mean = GlobalMetrics(
        accuracy=statistics.mean(m.accuracy for m in metrics),
        recall=statistics.mean(m.recall for m in metrics),
        f1=statistics.mean(m.f1 for m in metrics),
    )
    sd = GlobalMetrics(
        accuracy=statistics.pstdev(m.accuracy for m in metrics),
        recall=statistics.pstdev(m.recall for m in metrics),
        f1=statistics.pstdev(m.f1 for m in metrics),
    )
    return mean, sd


def _ordered_algorithms(config: ExperimentConfig) -> list:
    requested = set(config.algorithms)
    return [name for name in ALGORITHM_NAMES if name in requested]


def run_experiment(config: ExperimentConfig, parallel: int = 1) -> ReportTable:
    """Execute the whole grid and aggregate final-epoch metrics per cell.

    Results are keyed by (algorithm, configuration, run) before aggregation,
    so sequential and parallel execution produce identical tables.
    """
    cells = enumerate_configurations(config)
    algorithms = _ordered_algorithms(config)

    tasks = []
    for algorithm in algorithms:
        for cfg_index, cell in enumerate(cells):
            for run in range(config.runs):
                seed = hash64(
                    config.base_seed, ALGORITHM_INDEX[algorithm], cfg_index, run
                )
                tasks.append((algorithm, cfg_index, run, seed))

    def execute(task):
        algorithm, cfg_index, run, seed = task
        cell = cells[cfg_index]
        try:
            records = run_session(session_config(config, cell, algorithm), seed)
        except Exception as exc:
            raise RuntimeError(
                f"session failed: algorithm={algorithm} "
                f"configuration={cell.label!r} run={run} seed={seed}"
            ) from exc
        return (algorithm, cfg_index, run), (seed, records)

    if parallel > 1:
        with ThreadPoolExecutor(max_workers=parallel) as pool:
            results = dict(pool.map(execute, tasks))
    else:
        results = dict(map(execute, tasks))

    traces = []
    rows = []
    for algorithm in algorithms:
        for cfg_index, cell in enumerate(cells):
            finals = []
            for run in range(config.runs):
                seed, records = results[(algorithm, cfg_index, run)]
                traces.append(
                    RunTrace(
                        algorithm=algorithm,
                        configuration=cell.label,
                        run=run,
                        seed=seed,
                        records=tuple(records),
                    )
                )
                finals.append(records[-1].metrics)
            mean, sd = aggregate_runs(finals)
            rows.append(
                ReportRow(
                    algorithm=algorithm,
                    configuration=cell.label,
                    accuracy=mean.accuracy,
                    recall=mean.recall,
                    f1=mean.f1,
                    accuracy_sd=sd.accuracy,
                    recall_sd=sd.recall,
                    f1_sd=sd.f1,
                )
            )
    return ReportTable(rows=tuple(rows), traces=tuple(traces), config=config)


def _slug(text: str) -> str:
    return re.sub(r"[^a-z0-9]+", "-", text.lower()).strip("-")


SUMMARY_HEADER = [
    "algorithm",
    "configuration",
    "accuracy",
    "recall",
    "f1",
    "accuracy_sd",
    "recall_sd",
    "f1_sd",
]

ROUNDS_HEADER = ["epoch", "available", "selected_count", "accuracy", "recall", "f1"]


def emit_report(table: ReportTable, out_dir) -> Path:
    """Write summary.csv, per-run round traces, and a manifest; returns out_dir.

    All numbers are fixed to six decimals and rows are fully sorted, so two
    runs of the same config produce byte-identical files.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    with open(out / "summary.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(SUMMARY_HEADER)
        for row in sorted(table.rows, key=lambda r: (r.algorithm, r.configuration)):
            writer.writerow(
                [row.algorithm, row.configuration]
                + [
                    f"{value:.6f}"
                    for value in (
                        row.accuracy,
                        row.recall,
                        row.f1,
                        row.accuracy_sd,
                        row.recall_sd,
                        row.f1_sd,
                    )
                ]
            )

    rounds_dir = out / "rounds"
    rounds_dir.mkdir(exist_ok=True)
    for trace in table.traces:
        name = f"{trace.algorithm}__{_slug(trace.configuration)}__run{trace.run:02d}.csv"
        with open(rounds_dir / name, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(ROUNDS_HEADER)
            for record in trace.records:
                writer.writerow(
                    [
                        record.epoch,
                        record.available,
                        len(record.selected),
                        f"{record.metrics.accuracy:.6f}",
                        f"{record.metrics.recall:.6f}",
                        f"{record.metrics.f1:.6f}",
                    ]
                )

    from . import __version__

    manifest = {
        "version": __version__,
        "config": _config_dict(table.config),
        "cells": [cell.label for cell in enumerate_configurations(table.config)],
        "seeds": [
            {
                "algorithm": t.algorithm,
                "configuration": t.configuration,
                "run": t.run,
                "seed": t.seed,
            }
            for t in table.traces
        ],
    }
    with open(out / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return out


def _config_dict(config: ExperimentConfig) -> dict:
    raw = asdict(config)
    if raw["partition"] is None:
        del raw["partition"]
    return raw


# --- JSON config loading -------------------------------------------------

_TOP_LEVEL_KEYS = {
    "experiment",
    "algorithms",
    "client_counts",
    "epochs",
    "schedule_kind",
    "noise_levels",
    "partition",
    "runs",
    "base_seed",
    "weights",
    "select_fraction",
    "coverage_bonus",
    "lr",
    "batch_size",
    "optimizer",
    "dataset",
}

_NESTED_KEYS = {
    "partition": {"mode", "alpha"},
    "weights": {"w1", "w2", "w3"},
    "optimizer": {"population", "iterations"},
    "dataset": {"n_train_per_client", "n_test", "n_features", "class_separation"},
}


def _check_keys(mapping: dict, allowed: set, prefix: str = "") -> None:
    for key in mapping:
        if key not in allowed:
            raise ConfigError(f"unknown config key: {prefix}{key}")


def parse_config(raw: dict) -> ExperimentConfig:
    """Build an ExperimentConfig from a plain dict, rejecting unknown keys."""
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    _check_keys(raw, _TOP_LEVEL_KEYS)
    for section, allowed in _NESTED_KEYS.items():
        if section in raw:
            if not isinstance(raw[section], dict):
                raise ConfigError(f"config key {section} must be an object")
            _check_keys(raw[section], allowed, prefix=f"{section}.")
    if "experiment" not in raw:
        raise ConfigError("missing required config key: experiment")

    kwargs: dict = {"experiment": raw["experiment"]}
    if "algorithms" in raw:
        kwargs["algorithms"] = tuple(raw["algorithms"])
    if "client_counts" in raw:
        kwargs["client_counts"] = tuple(int(c) for c in raw["client_counts"])
    for key in ("epochs", "runs", "base_seed", "batch_size"):
        if key in raw:
            kwargs[key] = int(raw[key])
    for key in ("select_fraction", "coverage_bonus", "lr"):
        if key in raw:
            kwargs[key] = float(raw[key])
    if "schedule_kind" in raw:
        kwargs["schedule_kind"] = raw["schedule_kind"]
    if "noise_levels" in raw:
        kwargs["noise_levels"] = tuple(float(v) for v in raw["noise_levels"])
    try:
        if "partition" in raw:
            kwargs["partition"] = PartitionSpec(**raw["partition"])
        if "weights" in raw:
            kwargs["weights"] = FitnessWeights(**raw["weights"])
        if "optimizer" in raw:
            opt = raw["optimizer"]
            if "population" in opt:
                kwargs["population"] = int(opt["population"])
            if "iterations" in opt:
                kwargs["iterations"] = int(opt["iterations"])
        if "dataset" in raw:
            kwargs["dataset"] = DatasetSpec(**raw["dataset"])
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return ExperimentConfig(**kwargs)


def load_config(path) -> ExperimentConfig:
    """Parse a JSON experiment config file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    return parse_config(raw)


def override(config: ExperimentConfig, **changes) -> ExperimentConfig:
    """Replace selected fields (used by CLI flags)."""
    clean = {k: v for k, v in changes.items() if v is not None}
    return replace(config, **clean) if clean else config
