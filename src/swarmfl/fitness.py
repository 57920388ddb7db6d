"""Composite client fitness and the subset objective built on top of it.

A client's fitness combines its reported detection accuracy, false positive
rate, and responsiveness into a single weighted score.  Selection operates on
the score a client *reports*, while the training simulation uses the client's
true data quality -- the two differ exactly when the reporting channel is
noisy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

__all__ = [
    "ClientProfile",
    "FitnessWeights",
    "SubsetObjective",
    "client_fitness",
    "subset_objective",
    "greedy_topk",
]

_SUM_TOL = 1e-9


@dataclass(frozen=True)
class ClientProfile:
    """One client's drawn quality metrics; its pool index is its identity."""

    det_accuracy: float
    false_positive_rate: float
    response_time: float
    reported_accuracy: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.det_accuracy <= 1.0:
            raise ValueError(f"det_accuracy out of [0,1]: {self.det_accuracy}")
        if not 0.0 <= self.reported_accuracy <= 1.0:
            raise ValueError(
                f"reported_accuracy out of [0,1]: {self.reported_accuracy}"
            )
        if not 0.0 <= self.false_positive_rate <= 1.0:
            raise ValueError(
                f"false_positive_rate out of [0,1]: {self.false_positive_rate}"
            )
        # Written so that NaN fails: every comparison with NaN is false.
        if not self.response_time > 0.0:
            raise ValueError(f"response_time must be > 0, got {self.response_time}")

    @property
    def label_flip_rate(self) -> float:
        """The fraction of the client's local training labels that are corrupted.

        It is tied to ``det_accuracy`` (flip rate of a client with perfect
        detection accuracy is zero) so that low-quality clients are genuinely
        worse to train on, not just ranked lower.
        """
        return 1.0 - self.det_accuracy


@dataclass(frozen=True)
class FitnessWeights:
    """Weights for the three fitness terms (accuracy, FPR, responsiveness).

    Each weight is at most 1e6.  In a drawn pool the accuracy and FPR are at
    most 1 and 0.2 and the response time at least 0.1, so a client's fitness
    is at most 1e6 * (1 + 0.2 + 10), about 1.1e7, in magnitude.  The most a
    search then computes on it is aco's trail level (at most 10) times its
    squared fitness gap, about 1e16; overflow starts at 1.8e308, and the
    certificate's score limit at 2**500, about 3e150.  A finite weight
    such as 1.8e307 overflows every session.
    """

    w1: float = 1.0
    w2: float = 1.0
    w3: float = 0.1

    def __post_init__(self) -> None:
        if not all(0 <= w < math.inf for w in (self.w1, self.w2, self.w3)):
            raise ValueError("fitness weights must be nonnegative and finite")
        for name in ("w1", "w2", "w3"):
            if getattr(self, name) > 1e6:
                raise ValueError(f"{name} must be <= 1e6, got {getattr(self, name)}")
        if self.w1 == 0 and self.w2 == 0 and self.w3 == 0:
            raise ValueError("at least one fitness weight must be positive")


@dataclass(frozen=True)
class SubsetObjective:
    """A pool of client profiles plus the scoring rule for subsets of it.

    With ``coverage_bonus`` zero (the default) the objective is separable:
    the mean of the members' individual fitness scores.  A positive bonus
    adds an entropy reward on the pooled class mix, which makes the objective
    non-separable and the search genuinely combinatorial.
    """

    profiles: Sequence[ClientProfile]
    weights: FitnessWeights = field(default_factory=FitnessWeights)
    coverage_bonus: float = 0.0
    class_distributions: Optional[Sequence[Sequence[float]]] = None

    def __post_init__(self) -> None:
        if len(self.profiles) == 0:
            raise ValueError("objective needs at least one profile")
        if not 0 <= self.coverage_bonus < math.inf:
            raise ValueError("coverage_bonus must be nonnegative and finite")
        if self.coverage_bonus > 0:
            dists = self.class_distributions
            if dists is None:
                raise ValueError(
                    "class_distributions required when coverage_bonus > 0"
                )
            if len(dists) != len(self.profiles):
                raise ValueError(
                    "class_distributions length must match profiles "
                    f"({len(dists)} vs {len(self.profiles)})"
                )
            # The coverage term divides by ln(C) and pools the mixes
            # column-wise, so every mix needs the same C >= 2 classes.
            n_classes = len(dists[0])
            if n_classes < 2:
                raise ValueError("class_distributions need at least 2 classes")
            for i, dist in enumerate(dists):
                if len(dist) != n_classes:
                    raise ValueError(
                        f"class_distributions[{i}] has {len(dist)} classes,"
                        f" expected {n_classes}"
                    )
                if not all(p >= 0 for p in dist):
                    raise ValueError(f"class_distributions[{i}] has negative entry")
                if not abs(sum(dist) - 1.0) <= _SUM_TOL:
                    raise ValueError(f"class_distributions[{i}] does not sum to 1")


def client_fitness(profile: ClientProfile, weights: FitnessWeights) -> float:
    """Weighted composite score of one client.

    Uses the *reported* accuracy: the selector only ever sees what clients
    claim about themselves.
    """
    return (
        weights.w1 * profile.reported_accuracy
        - weights.w2 * profile.false_positive_rate
        + weights.w3 * (1.0 / profile.response_time)
    )


def _entropy(probs: Sequence[float]) -> float:
    """Shannon entropy in nats, with 0*log(0) treated as 0."""
    return -sum(p * math.log(p) for p in probs if p > 0.0)


def subset_objective(objective: SubsetObjective, subset) -> float:
    """Score a subset of clients: mean member fitness plus coverage bonus.

    The bonus term is ``coverage_bonus * H(mean distribution) / ln(C)`` so it
    lies in [0, coverage_bonus] regardless of the class count C.
    """
    members = sorted(set(int(i) for i in subset))
    if len(members) != len(list(subset)):
        raise ValueError("subset indices must be distinct")
    if not members:
        raise ValueError("subset must be nonempty")
    n = len(objective.profiles)
    if members[0] < 0 or members[-1] >= n:
        raise ValueError(f"subset index out of range 0..{n - 1}: {members}")

    mean_fit = sum(
        client_fitness(objective.profiles[i], objective.weights) for i in members
    ) / len(members)
    if objective.coverage_bonus == 0:
        return mean_fit

    dists = objective.class_distributions
    n_classes = len(dists[members[0]])
    pooled = [
        sum(dists[i][c] for i in members) / len(members) for c in range(n_classes)
    ]
    return mean_fit + objective.coverage_bonus * _entropy(pooled) / math.log(n_classes)


def greedy_topk(objective: SubsetObjective, k: int) -> set:
    """The k highest-fitness clients; exact optimum of the separable objective.

    Ties break toward the lower index.  Refuses non-separable objectives
    (positive coverage bonus), where a per-client ranking is not exact.
    """
    n = len(objective.profiles)
    if not 1 <= k <= n:
        raise ValueError(f"k must be in 1..{n}, got {k}")
    if objective.coverage_bonus > 0:
        raise ValueError("greedy_topk only supports coverage_bonus == 0")
    scores = [
        client_fitness(p, objective.weights) for p in objective.profiles
    ]
    order = sorted(range(n), key=lambda i: (-scores[i], i))
    return set(order[:k])
