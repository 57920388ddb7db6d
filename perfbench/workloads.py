"""The workloads: inputs made from the seed, one round of operations, checks.

A round is a fixed list of operations, the same in every round of a run.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import statistics
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import reference as ref
from calibration import Clock
from checks import CheckFailed, check_grid_output, check_selection, require, slug

POPULATION = 20
ITERATIONS = 100


@dataclass(frozen=True)
class Family:
    name: str
    n: int
    k: int
    noise: float
    coverage_bonus: float
    exhaustive: bool


# The 10/3 family is the acceptance-1 instance; 12/4 with a coverage bonus and
# Dirichlet class mixes is non-separable and takes the entropy branch of
# BatchObjective.value_rows; 25/10 is the pool of a default session and 50/20
# doubles it.
FAMILIES = (
    Family("exact-10-3", 10, 3, 0.0, 0.0, True),
    Family("coverage-12-4", 12, 4, 0.0, 0.3, True),
    Family("session-25-10", 25, 10, 0.25, 0.0, False),
    Family("large-50-20", 50, 20, 0.0, 0.0, False),
)
INSTANCES_PER_FAMILY = 2
# Repeats of each optimize call per round.  The cheap selectors (10-20 ms a
# call, against about 300 ms for iwd) repeat more, so that every algorithm is
# timed for a similar share of the round.  Fixed, so that every run attempts
# the same operations.
SELECT_REPEATS = {"gwo": 6, "pso": 8, "cuckoo": 6, "bat": 5, "bee": 3,
                  "aco": 2, "fish": 2, "glowworm": 2, "iwd": 2}


class Checked:
    """Collects check failures so that a faulty output still ends its round."""

    quality = 0.0

    def _check_safely(self, *args) -> None:
        try:
            self._check(*args)
        except CheckFailed as exc:
            self.faults.append(str(exc))


@dataclass
class RoundStats:
    """What one round did and how long its calls took."""

    ops: dict  # algorithm -> operations attempted, repeats included
    weight: int  # operations one timed call stands for
    times: dict  # algorithm -> per distinct call, its repeats' reference-speed times
    failed: int


class SelectWorkload(Checked):
    """``swarm.optimize`` for all nine algorithms on generated instances."""

    round_seconds = 17.0  # nominal length of a round on the reference machine

    def __init__(self, seed: int, out_dir: Path):
        self.faults = []
        self.report_sizes = []
        from swarmfl import NoiseSpec, SelectionProblem, SubsetObjective
        from swarmfl.datagen import dirichlet_partition, sample_client_profiles

        self.instances = []
        for f, family in enumerate(FAMILIES):
            for i in range(INSTANCES_PER_FAMILY):
                rng = np.random.default_rng([seed, f, i])
                profiles = sample_client_profiles(family.n, NoiseSpec(family.noise), rng)
                dists = None
                if family.coverage_bonus > 0:
                    dists = dirichlet_partition(0.5, family.n, 2, rng)
                objective = SubsetObjective(profiles=profiles,
                                            coverage_bonus=family.coverage_bonus,
                                            class_distributions=dists)
                problem = SelectionProblem(n_clients=family.n, k=family.k, objective=objective)
                opt_seed = int(rng.integers(0, 2**63))
                self.instances.append((family, problem, opt_seed))
        self.first_results = None

    def reference_optima(self) -> list:
        optima = []
        for family, problem, _ in self.instances:
            profiles = problem.objective.profiles
            if family.exhaustive:
                best = ref.exhaustive_optimum(problem.objective, family.n, family.k)
                if family.coverage_bonus == 0:
                    topk = ref.topk_optimum(profiles, family.k)
                    require(abs(best - topk) <= ref.VALUE_TOL,
                            f"{family.name}: exhaustive {best!r} != top-k mean {topk!r}")
            else:
                best = ref.topk_optimum(profiles, family.k)
            optima.append(best)
        return optima

    def run_round(self) -> RoundStats:
        from swarmfl import OptimizerParams, swarm

        results = []
        clock = Clock()
        for index, (_, problem, opt_seed) in enumerate(self.instances):
            outcomes = {algo: [] for algo in ref.ALGORITHMS}
            # Two passes over the algorithms, so that the repeats of one call
            # are spread over the instance's time rather than back to back.
            for half in (0, 1):
                for algo in ref.ALGORITHMS:
                    params = OptimizerParams(algo, population=POPULATION,
                                             iterations=ITERATIONS, seed=opt_seed)
                    count = SELECT_REPEATS[algo]
                    for _ in range(count // 2 if half == 0 else count - count // 2):
                        outcomes[algo].append(clock.call(lambda: swarm.optimize(problem, params)))
                    clock.settle((algo, index))
            results.extend(outcomes[algo] for algo in ref.ALGORITHMS)
        times = clock.times()
        timings = {algo: [times[(algo, i)] for i in range(len(self.instances))]
                   for algo in ref.ALGORITHMS}
        failed = sum(isinstance(r, Exception) for repeats in results for r in repeats)
        self._check_safely(results)
        return RoundStats({a: sum(map(len, t)) for a, t in timings.items()}, 1, timings, failed)

    def _check(self, results) -> None:
        results = [[_outcome(r) for r in repeats] for repeats in results]
        firsts = [repeats[0] for repeats in results]
        for repeats in results:
            require(all(r == repeats[0] for r in repeats[1:]),
                    "a repeated optimize call returned another result")
        if self.first_results is not None:
            require(firsts == self.first_results, "a repeated round returned other results")
            return
        self.first_results = firsts
        optima = self.reference_optima()
        ratios = []
        it = iter(firsts)
        for (family, problem, _), optimum in zip(self.instances, optima):
            obj = problem.objective
            for _algo in ref.ALGORITHMS:
                result = next(it)
                if isinstance(result, tuple):
                    continue
                score = ref.subset_score(obj.profiles, result.best_subset,
                                         obj.coverage_bonus, obj.class_distributions)
                check_selection(result, family.n, family.k, POPULATION, ITERATIONS,
                                score, optimum)
                ratios.append(result.best_value / optimum)
        self.quality = statistics.mean(ratios)

    def finish(self) -> None:
        pass


def _outcome(result):
    """A result, or a comparable stand-in for the exception a call raised."""
    if isinstance(result, Exception):
        return (type(result).__name__, str(result))
    return result


# The paper's noise family: 25 clients, 10 epochs, two reporting-noise levels.
NOISE_CELLS = (("noise=0.25", 0.25), ("noise=0.50", 0.5))
NOISE_POOL = 25
NOISE_EPOCHS = 10
NOISE_RUNS = 1
DATASET = {"n_train_per_client": 200, "n_test": 2000, "n_features": 10, "class_separation": 2.0}
# Runs per round of the cheaper algorithms' calls (0.1-0.8 s each, against
# 3.5 s for iwd), for the same reason as SELECT_REPEATS.
GRID_REPEATS = {"gwo": 3, "pso": 3, "cuckoo": 3, "bat": 3, "bee": 2}
# Cells re-run alone with run_session, whose rows must equal the grid's;
# gwo and pso are the cheapest selectors.
RERUN_ALGORITHMS = ("gwo", "pso")


def _cli(argv) -> int:
    from swarmfl import cli

    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


class NoiseGridWorkload(Checked):
    """The noise grid through sequential ``swarmfl run`` calls, via ``cli.main``.

    Each call runs one algorithm on one noise level: the shorter calls let the
    speed probes between them follow the host more closely.
    """

    round_seconds = 22.0  # nominal length of a round on the reference machine

    def __init__(self, seed: int, out_dir: Path):
        self.faults = []
        self.base_seed = int(np.random.default_rng(seed).integers(0, 2**63))
        self.out_dir = out_dir
        out_dir.mkdir(parents=True, exist_ok=True)
        self.configs = {}
        for algo in ref.ALGORITHMS:
            for label, level in NOISE_CELLS:
                config = {
                    "experiment": "noise",
                    "algorithms": [algo],
                    "client_counts": [NOISE_POOL],
                    "epochs": NOISE_EPOCHS,
                    "noise_levels": [level],
                    "runs": NOISE_RUNS,
                    "base_seed": self.base_seed,
                    "weights": {"w1": 1.0, "w2": 1.0, "w3": 0.1},
                    "select_fraction": 0.4,
                    "optimizer": {"population": POPULATION, "iterations": ITERATIONS},
                    "dataset": DATASET,
                }
                path = out_dir / f"config-{algo}-{slug(label)}.json"
                path.write_text(json.dumps(config, indent=2), encoding="utf-8")
                if _cli(["validate", "--config", str(path)]) != 0:
                    raise RuntimeError(f"swarmfl validate rejected {path}")
                self.configs[(algo, label)] = path
        self.rounds = 0
        self.first_summaries = {}
        self.finals = []
        self.report_sizes = []

    def run_round(self) -> RoundStats:
        calls = dict.fromkeys(self.configs, 0)
        failed = 0
        outs = []
        round_dir = self.out_dir / f"round{self.rounds}"
        shutil.rmtree(round_dir, ignore_errors=True)
        clock = Clock()
        # As in select, the repeats of the cheaper grids are split over two passes.
        for half in (0, 1):
            for key, config in self.configs.items():
                count = GRID_REPEATS.get(key[0], 1)
                for _ in range(count - count // 2 if half == 0 else count // 2):
                    out = round_dir / f"{key[0]}-{slug(key[1])}-{calls[key]}"
                    code = clock.call(lambda: _cli(["run", "--config", str(config),
                                                    "--out", str(out)]))
                    clock.settle(key)
                    calls[key] += 1
                    if code == 0:
                        outs.append((key, out))
                    else:
                        failed += NOISE_RUNS
        self._check_safely(outs)
        shutil.rmtree(round_dir, ignore_errors=True)
        self.rounds += 1
        times = clock.times()
        return RoundStats(
            {algo: NOISE_RUNS * sum(calls[(algo, label)] for label, _ in NOISE_CELLS)
             for algo in ref.ALGORITHMS},
            NOISE_RUNS,
            {algo: [times[(algo, label)] for label, _ in NOISE_CELLS] for algo in ref.ALGORITHMS},
            failed,
        )

    def _check(self, outs: list) -> None:
        for (algo, label), out in outs:
            self.report_sizes.append((
                sum(1 for p in out.rglob("*") if p.is_file()),
                sum(p.stat().st_size for p in out.rglob("*") if p.is_file()),
            ))
            summary = (out / "summary.csv").read_bytes()
            if (algo, label) in self.first_summaries:
                require(summary == self.first_summaries[(algo, label)],
                        f"{algo} {label}: a repeated run wrote another summary.csv")
                continue
            cells = [(label, ("fixed", NOISE_POOL, NOISE_POOL, NOISE_EPOCHS))]
            sessions = check_grid_output(out, algo, self.base_seed, cells, NOISE_RUNS,
                                         DATASET["class_separation"], DATASET["n_test"])
            self.first_summaries[(algo, label)] = summary
            self.finals.extend(float(rows[-1][3]) for _, rows in sessions.values())
            if algo in RERUN_ALGORITHMS:
                self._rerun_alone(algo, label, *sessions[(label, 0)])
        if self.rounds == 0:
            require(len(self.finals) > 0, "no session finished")
            self.quality = statistics.mean(self.finals)
            require(self.quality > 0.5,
                    f"mean final accuracy {self.quality:.4f} is not above chance")

    def _rerun_alone(self, algo: str, label: str, seed: int, rows: list) -> None:
        from swarmfl import (NoiseSpec, OptimizerParams, ParticipationSchedule,
                             SessionConfig, run_session)

        config = SessionConfig(
            schedule=ParticipationSchedule("fixed", NOISE_POOL, NOISE_POOL, NOISE_EPOCHS),
            noise=NoiseSpec(dict(NOISE_CELLS)[label]),
            optimizer=OptimizerParams(algo, population=POPULATION, iterations=ITERATIONS),
        )
        alone = [
            [str(r.epoch), str(r.available), str(len(r.selected)),
             f"{r.metrics.accuracy:.6f}", f"{r.metrics.recall:.6f}", f"{r.metrics.f1:.6f}"]
            for r in run_session(config, seed)
        ]
        require(alone == rows, f"{algo} {label}: grid rows differ from the session run alone")

    def finish(self) -> None:
        shutil.rmtree(self.out_dir, ignore_errors=True)


WORKLOADS = {"select": SelectWorkload, "noise-grid": NoiseGridWorkload}
