"""Nine swarm-intelligence optimizers over fixed-cardinality client subsets.

Every algorithm maximizes a ``SubsetObjective`` over k-of-N subsets and is
fully deterministic given ``OptimizerParams.seed``.  Continuous algorithms
search [0,1]^N positions decoded by rank; ``aco`` and ``iwd`` construct
subsets directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from ..errors import ConfigError
from ..fitness import SubsetObjective
from . import aco, bat, bee, cuckoo, fish, glowworm, gwo, iwd, pso
from .support import BatchObjective

__all__ = [
    "ALGORITHM_NAMES",
    "OptimizerParams",
    "SelectionProblem",
    "SelectionResult",
    "optimize",
]

_MODULES = MappingProxyType(
    {
        "gwo": gwo,
        "pso": pso,
        "cuckoo": cuckoo,
        "bat": bat,
        "bee": bee,
        "aco": aco,
        "fish": fish,
        "glowworm": glowworm,
        "iwd": iwd,
    }
)

ALGORITHM_NAMES = tuple(_MODULES)

_MAX_SEED = 2**64


@dataclass(frozen=True)
class SelectionProblem:
    """Pick the best k-element subset of an N-client pool."""

    n_clients: int
    k: int
    objective: SubsetObjective

    def __post_init__(self) -> None:
        if self.n_clients < 1:
            raise ValueError("n_clients must be positive")
        if not 1 <= self.k <= self.n_clients:
            raise ValueError(f"k must be in 1..{self.n_clients}, got {self.k}")
        if len(self.objective.profiles) != self.n_clients:
            raise ValueError(
                "objective profile count must equal n_clients "
                f"({len(self.objective.profiles)} vs {self.n_clients})"
            )


@dataclass(frozen=True)
class OptimizerParams:
    algorithm: str
    population: int = 20
    iterations: int = 100
    seed: int = 0

    def __post_init__(self) -> None:
        if self.algorithm not in _MODULES:
            raise ConfigError(
                f"unknown algorithm {self.algorithm!r}; "
                f"expected one of {', '.join(ALGORITHM_NAMES)}"
            )
        if self.population < 2:
            raise ValueError("population must be >= 2")
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if not 0 <= self.seed < _MAX_SEED:
            raise ValueError("seed must be an unsigned 64-bit integer")


@dataclass(frozen=True)
class SelectionResult:
    """The best subset a search scored, its value and its running best per iteration.

    ``evaluations`` counts the candidates scored.  That is fewer than the
    budget when the search stopped at a certified optimum (``optimize``).
    """

    best_subset: frozenset
    best_value: float
    trace: tuple
    evaluations: int


def optimize(problem: SelectionProblem, params: OptimizerParams) -> SelectionResult:
    """Run the named algorithm and return the best subset ever evaluated.

    The evaluation budget is population * (iterations + 1) times the
    per-algorithm ``EVAL_FACTOR`` (at most 3).  It is enforced: an evaluation
    that would go past it raises ``RuntimeError``.

    Each algorithm's ``run`` is a generator that yields once at the end of
    every iteration; ``optimize`` drives it and records ``best_value`` after
    each yield as the trace.  A search stops at the end of the iteration in
    which its best subset became the certified optimum of a separable
    objective (``BatchObjective.optimal``): no later candidate could replace
    it, and the generator is not resumed.  The trace is then padded with
    ``best_value`` to ``iterations`` entries, so subset, value and trace are
    those of the full search; only ``evaluations`` is smaller.
    """
    module = _MODULES[params.algorithm]
    rng = np.random.default_rng(params.seed)
    budget = params.population * (params.iterations + 1) * module.EVAL_FACTOR
    objective = BatchObjective(problem.objective, problem.k, budget)
    steps = module.run(
        problem.n_clients, problem.k, params.population, params.iterations, objective, rng
    )
    trace = []
    for _ in steps:
        trace.append(objective.best_value)
        if objective.optimal:
            trace.extend([objective.best_value] * (params.iterations - len(trace)))
            break
    return SelectionResult(
        best_subset=frozenset(int(i) for i in objective.best_row),
        best_value=objective.best_value,
        trace=tuple(trace),
        evaluations=objective.evaluations,
    )
