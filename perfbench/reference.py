"""Reference computations made apart from swarmfl.

Everything here is written from the documented formulas (README, docstrings)
and uses only the standard library, so a fault in the program cannot hide in
the value it is checked against.  Only ``exhaustive_optimum`` calls into the
program: it scores every subset with the scalar ``fitness.subset_objective``,
which shares no code with the vectorized ``BatchObjective`` the optimizers use.
"""

from __future__ import annotations

import csv
import itertools
import math
import statistics
from pathlib import Path

# Fixed algorithm identities of the seed derivation, in the order the README
# lists them.
ALGORITHMS = ("gwo", "pso", "cuckoo", "bat", "bee", "aco", "fish", "glowworm", "iwd")

MASK64 = (1 << 64) - 1
VALUE_TOL = 1e-9


def splitmix64_chain(*values: int) -> int:
    """Chained splitmix64 finalizer, as the ``hash64`` docstring defines it."""
    h = 0x9E3779B97F4A7C15
    for v in values:
        h = (h + (v & MASK64)) & MASK64
        h ^= h >> 30
        h = (h * 0xBF58476D1CE4E5B9) & MASK64
        h ^= h >> 27
        h = (h * 0x94D049BB133111EB) & MASK64
        h ^= h >> 31
    return h


def cell_seed(base_seed: int, algorithm: str, cell_index: int, run: int) -> int:
    return splitmix64_chain(base_seed, ALGORITHMS.index(algorithm), cell_index, run)


def client_score(profile, w1=1.0, w2=1.0, w3=0.1) -> float:
    """w1*reported - w2*fpr + w3/response_time, from the README."""
    return (
        w1 * profile.reported_accuracy
        - w2 * profile.false_positive_rate
        + w3 / profile.response_time
    )


def subset_score(profiles, subset, coverage_bonus=0.0, dists=None) -> float:
    """Mean member score plus coverage_bonus * H(pooled class mix) / ln(C)."""
    members = sorted(subset)
    value = sum(client_score(profiles[i]) for i in members) / len(members)
    if coverage_bonus > 0:
        n_classes = len(dists[0])
        pooled = [sum(dists[i][c] for i in members) / len(members) for c in range(n_classes)]
        entropy = -sum(p * math.log(p) for p in pooled if p > 0.0)
        value += coverage_bonus * entropy / math.log(n_classes)
    return value


def topk_optimum(profiles, k: int) -> float:
    """Exact optimum of the separable objective: the mean of the k best scores."""
    scores = sorted((client_score(p) for p in profiles), reverse=True)
    return sum(scores[:k]) / k


def exhaustive_optimum(objective, n: int, k: int) -> float:
    """Best value over every k-subset, scored by the scalar ``subset_objective``."""
    from swarmfl.fitness import subset_objective

    return max(subset_objective(objective, s) for s in itertools.combinations(range(n), k))


def participation(kind: str, start: int, end: int, epochs: int, epoch: int) -> int:
    """Pool size of a schedule: linear from start to end, rounded half up."""
    if kind == "fixed" or start == end:
        return start
    return math.floor(start + (end - start) * epoch / (epochs - 1) + 0.5)


def selected_count(pool: int, fraction: float = 0.4) -> int:
    """Round-half-up of fraction * pool, floored at 2 and capped at the pool."""
    return min(pool, max(2, math.floor(fraction * pool + 0.5)))


def bayes_accuracy(class_separation: float) -> float:
    """Best possible accuracy on two balanced unit Gaussians: Phi(separation/2)."""
    return 0.5 * (1.0 + math.erf(class_separation / 2.0 / math.sqrt(2.0)))


def accuracy_ceiling(class_separation: float, n_test: int, sigmas: float = 5.0) -> float:
    """Bayes rate plus ``sigmas`` binomial standard deviations for n_test samples."""
    p = bayes_accuracy(class_separation)
    return p + sigmas * math.sqrt(p * (1.0 - p) / n_test)


def summary_from_rounds(rounds_dir: Path, finals_key) -> dict:
    """Mean and population SD of each metric over the final rows of round files.

    ``finals_key`` maps a round-file name to its (algorithm, configuration)
    group.  Returns {group: {metric: (mean, sd)}}.
    """
    groups: dict = {}
    for path in sorted(Path(rounds_dir).glob("*.csv")):
        with open(path, newline="", encoding="utf-8") as fh:
            final = list(csv.DictReader(fh))[-1]
        groups.setdefault(finals_key(path.name), []).append(final)
    out = {}
    for group, finals in groups.items():
        out[group] = {
            metric: (
                statistics.mean(float(f[metric]) for f in finals),
                statistics.pstdev(float(f[metric]) for f in finals),
            )
            for metric in ("accuracy", "recall", "f1")
        }
    return out
