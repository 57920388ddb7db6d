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
import math
import os
import re
import reprlib
import statistics
from dataclasses import asdict, astuple, dataclass, field, fields, replace
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
    "check_out_dir",
    "hash64",
    "enumerate_configurations",
    "load_config",
    "run_experiment",
    "run_session_task",
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
_MAX_RUNS = 10**6  # derived in ExperimentConfig's docstring
_MAX_CLIENTS = 10**6


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
    """One scenario cell of an experiment grid and the session it runs."""

    label: str
    session: SessionConfig


@dataclass(frozen=True)
class ExperimentConfig:
    """An experiment grid: its family, its cells' shared settings and its runs.

    ``runs`` and every client count are at most 10**6.  Each run keeps its
    task and its trace in memory until the report is written, about 0.8 KB
    at the smallest session (one epoch of two clients, measured with
    ``tracemalloc``), and writes one round file; a session holds every
    client's profile, class mix and data, about 0.8 KB a client at one
    sample of one feature and over 16 KB at the default 200 samples of 10
    features.  So 10**6 runs of one cell and one algorithm, or one session
    of 10**6 clients, already needs about a gigabyte of memory, far past
    the paper's 30 runs of at most 25 clients; a larger value is a typo.
    """

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
    select_fraction: float = SessionConfig.select_fraction
    coverage_bonus: float = SessionConfig.coverage_bonus
    lr: float = SessionConfig.lr
    batch_size: int = SessionConfig.batch_size
    population: int = OptimizerParams.population
    iterations: int = OptimizerParams.iterations
    dataset: DatasetSpec = field(default_factory=DatasetSpec)

    def __post_init__(self) -> None:
        if self.experiment not in EXPERIMENTS:
            raise ConfigError(
                f"experiment must be one of {', '.join(EXPERIMENTS)}; "
                f"got {reprlib.repr(self.experiment)}"
            )
        if not self.algorithms:
            raise ConfigError("algorithms must be a nonempty list")
        unknown = [a for a in self.algorithms if a not in ALGORITHM_INDEX]
        if unknown:
            raise ConfigError(f"unknown algorithms: {reprlib.repr(unknown)}")
        repeated = sorted({a for a in self.algorithms if self.algorithms.count(a) > 1})
        if repeated:
            raise ConfigError(f"algorithms repeated: {', '.join(repeated)}")
        if self.runs < 1:
            raise ConfigError("runs must be >= 1")
        if self.runs > _MAX_RUNS:
            raise ConfigError(f"runs must be <= {_MAX_RUNS}, got {reprlib.repr(self.runs)}")
        if not 0 <= self.base_seed < 2**64:
            raise ConfigError("base_seed must be an unsigned 64-bit integer")
        if self.epochs is not None and self.epochs < 1:
            raise ConfigError("epochs must be >= 1")
        # The family rules and every other range are checked while the cells are built.
        try:
            cells = enumerate_configurations(self)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        # A label names a cell's summary rows and trace files.
        labels = [cell.label for cell in cells]
        repeated = sorted({label for label in labels if labels.count(label) > 1})
        if repeated:
            raise ConfigError(f"grid cells share a label: {', '.join(repeated)}")


def enumerate_configurations(config: ExperimentConfig) -> list:
    """The deterministic, ordered list of scenario cells for a config.

    Each cell carries its complete ``SessionConfig``, built once here from the
    config's shared settings and running the grid's first algorithm;
    ``run_experiment`` swaps in each task's own.  A broken family rule
    raises ``ConfigError``, and a setting out of range raises the
    ``ValueError`` of the spec that holds it.
    """
    experiment = config.experiment
    if experiment != "noise" and tuple(config.noise_levels) != ExperimentConfig.noise_levels:
        raise ConfigError("noise_levels only applies to noise experiments")
    shared = dict(
        dataset=config.dataset,
        partition=config.partition
        or PartitionSpec(mode="dirichlet" if experiment == "noniid" else "iid"),
        optimizer=OptimizerParams(config.algorithms[0], config.population, config.iterations),
        weights=config.weights,
        select_fraction=config.select_fraction,
        coverage_bonus=config.coverage_bonus,
        lr=config.lr,
        batch_size=config.batch_size,
    )

    def cell(label, start, end, epochs, kind="fixed", level=0.0):
        schedule = ParticipationSchedule(kind, start, end, epochs)
        return Configuration(label, SessionConfig(schedule, noise=NoiseSpec(level), **shared))

    if experiment == "dynamic":
        lo, hi = _DYNAMIC_BOUNDS
        bounds = {"increasing": (lo, hi), "decreasing": (hi, lo)}
        if config.schedule_kind not in (None, *bounds):
            raise ConfigError(
                "schedule_kind must be increasing or decreasing, "
                f"got {reprlib.repr(config.schedule_kind)}"
            )
        if config.client_counts is not None:
            raise ConfigError("client_counts does not apply to dynamic experiments")
        epochs = config.epochs or _DEFAULT_EPOCHS["dynamic"]
        kinds = (config.schedule_kind,) if config.schedule_kind else tuple(bounds)
        return [cell(f"schedule={k}", *bounds[k], epochs, k) for k in kinds]
    if config.schedule_kind is not None:
        raise ConfigError("schedule_kind only applies to dynamic experiments")
    counts = _DEFAULT_CLIENTS[experiment] if config.client_counts is None else config.client_counts
    if not counts:
        raise ConfigError("client_counts must be nonempty")
    if any(c < 2 for c in counts):
        raise ConfigError("client counts must be >= 2")
    if max(counts) > _MAX_CLIENTS:
        raise ConfigError(
            f"client counts must be <= {_MAX_CLIENTS}, got {reprlib.repr(max(counts))}"
        )
    if experiment == "fixed":
        grid = (config.epochs,) if config.epochs else _FIXED_EPOCH_GRID
        return [cell(f"clients={n},epochs={e}", n, n, e) for n in counts for e in grid]
    epochs = config.epochs or _DEFAULT_EPOCHS[experiment]
    if experiment == "noniid":
        return [cell(f"clients={n}", n, n, epochs) for n in counts]
    if len(counts) != 1:
        raise ConfigError("noise experiments use a single client count")
    if not config.noise_levels:
        raise ConfigError("noise_levels must be nonempty")
    (n,) = counts
    return [cell(f"noise={x:.2f}", n, n, epochs, level=x) for x in config.noise_levels]


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
    columns = list(zip(*map(astuple, per_run_metrics)))
    if not columns:
        raise ValueError("aggregate_runs needs at least one run")
    return tuple(
        GlobalMetrics(*map(stat, columns)) for stat in (statistics.mean, statistics.pstdev)
    )


def run_session_task(task) -> list:
    """Run one grid session; ``task`` is ``(algorithm, label, run, seed, SessionConfig)``.

    Module-level, so a task and this function can be pickled.  A failure's
    message ends with its cause's type and text, since a process pool does
    not carry ``__cause__`` back to the caller.
    """
    algorithm, label, run, seed, session = task
    try:
        return run_session(session, seed)
    except Exception as exc:
        raise RuntimeError(
            f"session failed: algorithm={algorithm} "
            f"configuration={label!r} run={run} seed={seed}: "
            f"{type(exc).__name__}: {exc}"
        ) from exc


def run_experiment(config: ExperimentConfig, parallel: int = 1) -> ReportTable:
    """Execute the whole grid and aggregate final-epoch metrics per cell.

    The sessions form one list in report order: algorithms in canonical
    order, then cells, then runs.  Each task runs its cell's session with its
    own algorithm swapped in.  Results come back in that order, whether
    run in sequence or on ``min(parallel, os.cpu_count())`` worker
    processes, so each row aggregates one consecutive slice of
    ``config.runs`` traces and the table does not depend on the worker count.
    The pool is imported only when it is used, so a sequential run pays
    nothing for it.
    """
    cells = enumerate_configurations(config)
    tasks = [
        (
            algorithm,
            cell.label,
            run,
            hash64(config.base_seed, ALGORITHM_INDEX[algorithm], cfg_index, run),
            replace(
                cell.session,
                optimizer=replace(cell.session.optimizer, algorithm=algorithm),
            ),
        )
        for algorithm in sorted(config.algorithms, key=ALGORITHM_INDEX.__getitem__)
        for cfg_index, cell in enumerate(cells)
        for run in range(config.runs)
    ]
    workers = min(parallel, os.cpu_count() or 1)
    if workers > 1:
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        context = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(max_workers=workers, mp_context=context) as pool:
            results = list(pool.map(run_session_task, tasks))
    else:
        results = list(map(run_session_task, tasks))

    traces = tuple(
        RunTrace(algorithm, label, run, seed, tuple(records))
        for (algorithm, label, run, seed, _), records in zip(tasks, results)
    )
    rows = []
    for start in range(0, len(traces), config.runs):
        cell_traces = traces[start : start + config.runs]
        mean, sd = aggregate_runs(t.records[-1].metrics for t in cell_traces)
        rows.append(
            ReportRow(
                cell_traces[0].algorithm,
                cell_traces[0].configuration,
                *astuple(mean),
                *astuple(sd),
            )
        )
    return ReportTable(rows=tuple(rows), traces=traces, config=config)


def _slug(text: str) -> str:
    return re.sub(r"[^a-z0-9]+", "-", text.lower()).strip("-")


ROUNDS_HEADER = [
    "epoch", "available", "selected_count", *(f.name for f in fields(GlobalMetrics))
]


def check_out_dir(out_dir) -> Path:
    """``out_dir`` as a Path, if it is absent or an empty directory.

    A report written over an older one would leave that one's round files
    beside it, so anything else raises ``FileExistsError``.
    """
    out = Path(out_dir)
    if out.exists() and (not out.is_dir() or any(out.iterdir())):
        raise FileExistsError(f"output path exists and is not an empty directory: {out}")
    return out


def emit_report(table: ReportTable, out_dir) -> Path:
    """Write summary.csv, per-run round traces, and a manifest; returns out_dir.

    All numbers are fixed to six decimals and rows are fully sorted, so two
    runs of the same config produce byte-identical files.  ``out_dir`` must
    be absent or empty (``check_out_dir``); nothing is written otherwise.
    """
    out = check_out_dir(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _write_csv(
        out / "summary.csv",
        [f.name for f in fields(ReportRow)],
        (
            [row.algorithm, row.configuration] + [f"{v:.6f}" for v in astuple(row)[2:]]
            for row in sorted(table.rows, key=lambda r: (r.algorithm, r.configuration))
        ),
    )

    rounds_dir = out / "rounds"
    rounds_dir.mkdir(exist_ok=True)
    for trace in table.traces:
        name = f"{trace.algorithm}__{_slug(trace.configuration)}__run{trace.run:02d}.csv"
        _write_csv(
            rounds_dir / name,
            ROUNDS_HEADER,
            (
                [r.epoch, r.available, len(r.selected)]
                + [f"{v:.6f}" for v in astuple(r.metrics)]
                for r in trace.records
            ),
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


def _write_csv(path: Path, header, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _config_dict(config: ExperimentConfig) -> dict:
    raw = asdict(config)
    if raw["partition"] is None:
        del raw["partition"]
    return raw


# --- JSON config loading -------------------------------------------------
#
# Error messages echo a bad value through ``reprlib.repr``, which cuts long
# strings, numbers and arrays short: a wrong value may be a whole array.

def _integer(value, key):
    """A JSON integer; booleans are not integers here."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{key} must be an integer, got {reprlib.repr(value)}")
    return value


def _number(value, key):
    """A finite JSON integer or float; booleans and strings are not numbers here.

    ``json.load`` accepts the literals ``NaN``, ``Infinity`` and
    ``-Infinity``, and integers too large for any float; they are rejected
    here, before any range check sees them.  An integer stays an integer.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{key} must be a number, got {reprlib.repr(value)}")
    try:
        finite = math.isfinite(value)
    except OverflowError:  # an integer that no float can hold
        finite = False
    if not finite:
        raise ConfigError(f"{key} must be a finite number, got {reprlib.repr(value)}")
    return value


def _real(value, key):
    """A JSON number, read as a float."""
    return float(_number(value, key))


def _string(value, key):
    if not isinstance(value, str):
        raise ConfigError(f"{key} must be a string, got {reprlib.repr(value)}")
    return value


def _array_of(element):
    """A JSON array whose items all pass ``element``; returned as a tuple."""

    def check(value, key):
        if not isinstance(value, list):
            raise ConfigError(f"{key} must be an array, got {reprlib.repr(value)}")
        return tuple(element(item, f"{key}[{i}]") for i, item in enumerate(value))

    return check


_SCHEMA = {
    "experiment": _string,
    "algorithms": _array_of(_string),
    "client_counts": _array_of(_integer),
    "epochs": _integer,
    "schedule_kind": _string,
    "noise_levels": _array_of(_real),
    "runs": _integer,
    "base_seed": _integer,
    "select_fraction": _real,
    "coverage_bonus": _real,
    "lr": _real,
    "batch_size": _integer,
    "partition": {"mode": _string, "alpha": _number},
    "weights": {"w1": _number, "w2": _number, "w3": _number},
    "optimizer": {"population": _integer, "iterations": _integer},
    "dataset": {
        "n_train_per_client": _integer,
        "n_test": _integer,
        "n_features": _integer,
        "class_separation": _number,
    },
}


def _object(raw, schema: dict, key=None) -> dict:
    """A JSON object with only ``schema``'s keys, each value checked by its rule.

    A rule is a checker or a section's nested schema; ``key`` names a
    section, ``None`` the root.  The first faulty key in file order is reported.
    """
    if not isinstance(raw, dict):
        raise ConfigError(
            "config root must be a JSON object" if key is None
            else f"config key {key} must be an object"
        )
    values = {}
    for name, value in raw.items():
        path = name if key is None else f"{key}.{name}"
        if name not in schema:
            raise ConfigError(f"unknown config key: {path}")
        rule = schema[name]
        values[name] = _object(value, rule, path) if isinstance(rule, dict) else rule(value, path)
    return values


def parse_config(raw: dict) -> ExperimentConfig:
    """Build an ExperimentConfig from a plain dict, rejecting unknown keys.

    Every value must have its JSON type: integer keys take integers only,
    number keys integers or floats, list keys arrays of those.  Any value
    the specs reject, by type or by range, raises ``ConfigError``.
    """
    kwargs = _object(raw, _SCHEMA)
    if "experiment" not in kwargs:
        raise ConfigError("missing required config key: experiment")
    kwargs.update(kwargs.pop("optimizer", {}))
    specs = (("partition", PartitionSpec), ("weights", FitnessWeights), ("dataset", DatasetSpec))
    try:
        for name, spec in specs:
            if name in kwargs:
                kwargs[name] = spec(**kwargs[name])
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc
    return ExperimentConfig(**kwargs)


def load_config(path) -> ExperimentConfig:
    """Parse a JSON experiment config file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config is not UTF-8 text: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise ConfigError("config is not valid JSON: nested too deeply") from exc
    except ValueError as exc:  # an integer past int()'s digit limit
        raise ConfigError(f"config has a number too long to read: {exc}") from exc
    return parse_config(raw)


def override(config: ExperimentConfig, **changes) -> ExperimentConfig:
    """Replace selected fields (used by CLI flags)."""
    clean = {k: v for k, v in changes.items() if v is not None}
    return replace(config, **clean) if clean else config
