"""Self-tests of the benchmark's reference computations and checks.

    python3 perfbench/selftest.py

Each check must accept the program's real output and reject a corrupted copy
of it.  Exits 0 when every self-test passes.
"""

from __future__ import annotations

import contextlib
import io
import random
import shutil
import sys
from pathlib import Path

import run
import reference as ref
from checks import CheckFailed, check_grid_output, check_selection


def rejects(action) -> bool:
    try:
        action()
    except CheckFailed:
        return True
    return False


def test_splitmix64_matches_hash64() -> None:
    from swarmfl import hash64

    rng = random.Random(20241128)
    for _ in range(2000):
        values = [rng.getrandbits(64) for _ in range(rng.randint(0, 5))]
        assert ref.splitmix64_chain(*values) == hash64(*values), values


def test_selection_checks() -> None:
    import numpy as np
    from swarmfl import (NoiseSpec, OptimizerParams, SelectionProblem, SelectionResult,
                         SubsetObjective, optimize, sample_client_profiles)

    profiles = sample_client_profiles(10, NoiseSpec(0.0), np.random.default_rng(5))
    objective = SubsetObjective(profiles=profiles)
    problem = SelectionProblem(n_clients=10, k=3, objective=objective)
    optimum = ref.exhaustive_optimum(objective, 10, 3)
    assert abs(optimum - ref.topk_optimum(profiles, 3)) <= ref.VALUE_TOL
    result = optimize(problem, OptimizerParams("gwo", seed=11))
    score = ref.subset_score(profiles, result.best_subset)
    check_selection(result, 10, 3, 20, 100, score, optimum)

    # a subset whose value exceeds the optimum
    assert rejects(lambda: check_selection(
        SelectionResult(result.best_subset, optimum + 0.01, result.trace[:-1] + (optimum + 0.01,),
                        result.evaluations),
        10, 3, 20, 100, optimum + 0.01, optimum))
    # a value that is not the score of the subset
    assert rejects(lambda: check_selection(
        SelectionResult(result.best_subset, score - 0.01, result.trace, result.evaluations),
        10, 3, 20, 100, score, optimum))
    # too few members, an out-of-range index, and an overspent budget
    assert rejects(lambda: check_selection(
        SelectionResult(frozenset(list(result.best_subset)[:2]), score, result.trace,
                        result.evaluations), 10, 3, 20, 100, score, optimum))
    assert rejects(lambda: check_selection(
        SelectionResult(frozenset({0, 1, 10}), score, result.trace, result.evaluations),
        10, 3, 20, 100, score, optimum))
    assert rejects(lambda: check_selection(
        SelectionResult(result.best_subset, score, result.trace, 20 * 101 * 3 + 1),
        10, 3, 20, 100, score, optimum))
    # a trace that decreases
    bad_trace = (result.trace[0] + 1.0,) + result.trace[1:]
    assert rejects(lambda: check_selection(
        SelectionResult(result.best_subset, score, bad_trace, result.evaluations),
        10, 3, 20, 100, score, optimum))


def _corrupt(path: Path, old: str, new: str) -> None:
    text = path.read_text(encoding="utf-8")
    assert old in text, (path, old)
    path.write_text(text.replace(old, new, 1), encoding="utf-8")


def test_grid_checks(scratch: Path) -> None:
    from swarmfl.cli import main

    cells = [("noise=0.25", ("fixed", 6, 6, 3)), ("noise=0.50", ("fixed", 6, 6, 3))]
    config = scratch / "config.json"
    config.write_text(
        '{"experiment": "noise", "algorithms": ["pso"], "client_counts": [6], "epochs": 3,'
        ' "noise_levels": [0.25, 0.5], "runs": 2, "base_seed": 99,'
        ' "optimizer": {"population": 4, "iterations": 3},'
        ' "dataset": {"n_train_per_client": 40, "n_test": 400}}',
        encoding="utf-8")
    good = scratch / "good"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["run", "--config", str(config), "--out", str(good)]) == 0
    args = ("pso", 99, cells, 2, 2.0, 400)
    check_grid_output(good, *args)

    def corrupted(name: str, edit) -> Path:
        copy = scratch / name
        shutil.copytree(good, copy)
        edit(copy)
        return copy

    # a changed digit in summary.csv
    def summary_digit(out: Path) -> None:
        path = out / "summary.csv"
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        fields = lines[1].split(",")
        digits = list(fields[2])
        digits[3] = "1" if digits[3] != "1" else "2"
        fields[2] = "".join(digits)
        lines[1] = ",".join(fields)
        path.write_text("".join(lines), encoding="utf-8")

    assert rejects(lambda: check_grid_output(corrupted("digit", summary_digit), *args))

    # a wrong seed in the manifest
    seed = ref.cell_seed(99, "pso", 1, 1)
    bad_seed = corrupted("seed", lambda out: _corrupt(out / "manifest.json", str(seed),
                                                      str(seed ^ 1)))
    assert rejects(lambda: check_grid_output(bad_seed, *args))

    # a wrong pool size and a wrong cohort size in a round file
    round_file = "rounds/pso__noise-0-25__run00.csv"
    bad_pool = corrupted("pool", lambda out: _corrupt(out / round_file, "\n1,6,2,", "\n1,5,2,"))
    assert rejects(lambda: check_grid_output(bad_pool, *args))
    bad_k = corrupted("k", lambda out: _corrupt(out / round_file, "\n1,6,2,", "\n1,6,3,"))
    assert rejects(lambda: check_grid_output(bad_k, *args))


def test_reference_formulas() -> None:
    assert [ref.selected_count(p) for p in (2, 3, 4, 5, 6, 25)] == [2, 2, 2, 2, 2, 10]
    assert ref.selected_count(9) == 4 and ref.selected_count(10) == 4
    ramp = [ref.participation("increasing", 5, 25, 20, e) for e in range(20)]
    assert ramp[0] == 5 and ramp[-1] == 25 and ramp == sorted(ramp)
    assert abs(ref.bayes_accuracy(2.0) - 0.8413447460685429) < 1e-12


def main() -> int:
    run.import_swarmfl()
    scratch = run.ROOT / ".perfbench_out" / "selftest"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    try:
        test_splitmix64_matches_hash64()
        test_reference_formulas()
        test_selection_checks()
        test_grid_checks(scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        with contextlib.suppress(OSError):
            scratch.parent.rmdir()
    print("perfbench self-tests passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
