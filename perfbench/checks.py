"""Output and property checks; each raises ``CheckFailed`` on the first fault."""

from __future__ import annotations

import csv
import json
import re
from pathlib import Path

import reference as ref

# summary.csv is computed from unrounded metrics and rounds/*.csv holds them
# rounded to six decimals, so a recomputed mean or SD can differ from the
# printed one by at most two half-units of the sixth decimal.
SUMMARY_TOL = 1e-6 + 1e-9

ROUNDS_HEADER = ["epoch", "available", "selected_count", "accuracy", "recall", "f1"]
SUMMARY_HEADER = [
    "algorithm", "configuration", "accuracy", "recall", "f1",
    "accuracy_sd", "recall_sd", "f1_sd",
]


class CheckFailed(AssertionError):
    pass


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def check_selection(result, n: int, k: int, population: int, iterations: int,
                    reference_value: float, optimum: float) -> None:
    """Properties every ``optimize`` result must have."""
    subset = sorted(result.best_subset)
    require(len(subset) == k, f"best_subset has {len(subset)} members, want {k}")
    require(all(isinstance(i, int) and 0 <= i < n for i in subset),
            f"best_subset has an index outside 0..{n - 1}: {subset}")
    require(abs(result.best_value - reference_value) <= ref.VALUE_TOL,
            f"best_value {result.best_value!r} != reference score {reference_value!r}")
    require(result.best_value <= optimum + ref.VALUE_TOL,
            f"best_value {result.best_value!r} exceeds the exact optimum {optimum!r}")
    budget = population * (iterations + 1) * 3
    require(result.evaluations <= budget,
            f"{result.evaluations} evaluations exceed the budget {budget}")
    trace = result.trace
    require(len(trace) == iterations, f"trace has {len(trace)} entries, want {iterations}")
    require(all(a <= b for a, b in zip(trace, trace[1:])), "trace decreases")
    require(trace[-1] == result.best_value, "trace does not end at best_value")


def slug(label: str) -> str:
    return re.sub(r"[^a-z0-9]+", "-", label.lower()).strip("-")


def check_grid_output(out_dir, algorithm: str, base_seed: int, cells, runs: int,
                      class_separation: float, n_test: int) -> dict:
    """Check one single-algorithm grid report against the reference formulas.

    ``cells`` is the ordered list of (label, (kind, start, end, epochs)).
    Returns {(label, run): (seed, rows)} where rows are the CSV rows as lists
    of strings, for callers that re-run sessions.
    """
    out = Path(out_dir)
    with open(out / "manifest.json", encoding="utf-8") as fh:
        manifest = json.load(fh)
    labels = [label for label, _ in cells]
    require(manifest["cells"] == labels, f"manifest cells {manifest['cells']} != {labels}")
    seeds = {}
    for entry in manifest["seeds"]:
        require(entry["algorithm"] == algorithm, f"manifest names {entry['algorithm']}")
        index = labels.index(entry["configuration"])
        want = ref.cell_seed(base_seed, algorithm, index, entry["run"])
        require(entry["seed"] == want,
                f"manifest seed {entry['seed']} for {entry['configuration']} run "
                f"{entry['run']} != splitmix64 {want}")
        seeds[(entry["configuration"], entry["run"])] = entry["seed"]
    expected = {(label, run) for label in labels for run in range(runs)}
    require(set(seeds) == expected and len(manifest["seeds"]) == len(expected),
            "manifest seeds do not cover every (configuration, run) once")

    names = {f"{algorithm}__{slug(label)}__run{run:02d}.csv": (label, run)
             for label, run in expected}
    present = {p.name for p in (out / "rounds").iterdir()}
    require(present == set(names), f"round files {sorted(present)} != {sorted(names)}")

    ceiling = ref.accuracy_ceiling(class_separation, n_test)
    sessions = {}
    for name, (label, run) in names.items():
        kind, start, end, epochs = dict(cells)[label]
        with open(out / "rounds" / name, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        require(rows[0] == ROUNDS_HEADER, f"{name}: header {rows[0]}")
        rows = rows[1:]
        require(len(rows) == epochs, f"{name}: {len(rows)} rounds, want {epochs}")
        for epoch, row in enumerate(rows):
            pool = ref.participation(kind, start, end, epochs, epoch)
            require(int(row[0]) == epoch, f"{name}: epoch {row[0]} at row {epoch}")
            require(int(row[1]) == pool, f"{name}: epoch {epoch} available {row[1]}, want {pool}")
            want_k = ref.selected_count(pool)
            require(int(row[2]) == want_k,
                    f"{name}: epoch {epoch} selected {row[2]}, want {want_k}")
            for value in row[3:]:
                require(0.0 <= float(value) <= 1.0, f"{name}: metric {value} outside [0,1]")
        final = float(rows[-1][3])
        require(final <= ceiling,
                f"{name}: final accuracy {final} above the Bayes ceiling {ceiling:.4f}")
        sessions[(label, run)] = (seeds[(label, run)], rows)

    recomputed = ref.summary_from_rounds(out / "rounds", lambda n: names[n][0])
    with open(out / "summary.csv", newline="", encoding="utf-8") as fh:
        summary = list(csv.reader(fh))
    require(summary[0] == SUMMARY_HEADER, f"summary header {summary[0]}")
    require(sorted(row[1] for row in summary[1:]) == sorted(labels),
            "summary.csv does not hold one row per configuration")
    for row in summary[1:]:
        require(row[0] == algorithm, f"summary row for {row[0]}")
        stats = recomputed[row[1]]
        for i, metric in enumerate(("accuracy", "recall", "f1")):
            mean, sd = stats[metric]
            require(abs(float(row[2 + i]) - mean) <= SUMMARY_TOL,
                    f"summary {row[1]} {metric} {row[2 + i]} != mean {mean:.7f}")
            require(abs(float(row[5 + i]) - sd) <= SUMMARY_TOL,
                    f"summary {row[1]} {metric}_sd {row[5 + i]} != pstdev {sd:.7f}")
    return sessions
