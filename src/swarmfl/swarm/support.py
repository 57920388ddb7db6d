"""Shared machinery for the subset-selection optimizers.

All nine algorithms maximize the same objective over k-element subsets of a
client pool.  Continuous algorithms move points in [0,1]^N and decode them by
rank; constructive algorithms assemble index sets directly.  Everything here
is deterministic given the caller's generator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ..fitness import SubsetObjective, client_fitness

__all__ = [
    "Position",
    "decode_position",
    "decode_rows",
    "keyed_sample",
    "levy_sample",
    "pheromone_construct",
    "BatchObjective",
    "BestTracker",
]


@dataclass(frozen=True)
class Position:
    """A candidate selection encoded as a point in [0,1]^N."""

    coords: np.ndarray

    def __post_init__(self) -> None:
        coords = np.asarray(self.coords, dtype=float)
        if coords.ndim != 1:
            raise ValueError("coords must be one-dimensional")
        if coords.size == 0:
            raise ValueError("coords must be nonempty")
        if np.any(coords < 0.0) or np.any(coords > 1.0):
            raise ValueError("coords must lie in [0,1]")
        object.__setattr__(self, "coords", coords)


def decode_rows(coords: np.ndarray, k: int) -> np.ndarray:
    """Rank-decode a (m, N) batch of positions into sorted (m, k) index rows.

    Row i holds the indices of the k largest coordinates of position i; ties
    go to the lower index (stable sort on the negated coordinates).
    """
    picked = np.argsort(-coords, axis=-1, kind="stable")[..., :k]
    return np.sort(picked, axis=-1)


def decode_position(position: Position, k: int):
    """Indices of the k largest coordinates; ties favor the lower index."""
    n = position.coords.size
    if not 1 <= k <= n:
        raise ValueError(f"k must be in 1..{n}, got {k}")
    row = decode_rows(position.coords[None, :], k)[0]
    return set(int(i) for i in row)


def _levy_sigma(beta: float) -> float:
    num = math.gamma(1.0 + beta) * math.sin(math.pi * beta / 2.0)
    den = math.gamma((1.0 + beta) / 2.0) * beta * 2.0 ** ((beta - 1.0) / 2.0)
    return (num / den) ** (1.0 / beta)


def levy_sample(beta: float, rng: np.random.Generator, size=None):
    """Heavy-tailed step via Mantegna's method: u / |v|^(1/beta).

    u ~ Normal(0, sigma_u^2) and v ~ Normal(0, 1), where sigma_u depends only
    on beta.  With ``size`` given, draws the whole block in one u-then-v pass.
    """
    if not 1.0 < beta <= 2.0:
        raise ValueError(f"beta must be in (1, 2], got {beta}")
    sigma = _levy_sigma(beta)
    u = rng.normal(0.0, sigma, size)
    v = rng.normal(0.0, 1.0, size)
    return u / np.abs(v) ** (1.0 / beta)


def keyed_sample(weights: np.ndarray, races: np.ndarray, k: int) -> np.ndarray:
    """First k indices in ascending order of ``races / weights``, per row.

    With ``races`` independent Exp(1) draws (one per weight, any leading batch
    shape), the returned order has the distribution of k rounds of roulette
    without replacement with probabilities proportional to the positive
    ``weights``: index i finishes an Exp(w_i) race, and the first finisher
    among those left is i with probability w_i / sum(w).  (Efraimidis &
    Spirakis, IPL 2006.)  The order is kept: column j is the (j+1)-th pick.
    """
    return (races / weights).argsort(axis=-1, kind="stable")[..., :k]


def pheromone_construct(
    tau: np.ndarray,
    eta: np.ndarray,
    alpha: float,
    beta: float,
    k: int,
    rng: np.random.Generator,
) -> set:
    """Draw k distinct indices, each with probability ~ tau^alpha * eta^beta.

    Same distribution as sequential roulette without replacement over the
    remaining indices; drawn in one pass through ``keyed_sample``.
    """
    tau = np.asarray(tau, dtype=float)
    eta = np.asarray(eta, dtype=float)
    if tau.shape != eta.shape or tau.ndim != 1:
        raise ValueError("tau and eta must be equal-length vectors")
    if np.any(tau <= 0.0) or np.any(eta <= 0.0):
        raise ValueError("tau and eta must be strictly positive")
    n = tau.size
    if not 1 <= k <= n:
        raise ValueError(f"k must be in 1..{n}, got {k}")

    order = keyed_sample(tau**alpha * eta**beta, rng.standard_exponential(n), k)
    return set(int(i) for i in order)


def fold_into_box(coords: np.ndarray) -> np.ndarray:
    """Reflect out-of-box coordinates back into [0,1].

    Plain clamping piles coordinates up on the walls, where rank decoding
    degenerates into index-order tie-breaking; reflection keeps them spread.
    """
    folded = np.where(coords < 0.0, -coords, coords)
    folded = np.where(folded > 1.0, 2.0 - folded, folded)
    return np.clip(folded, 0.0, 1.0)


class BatchObjective:
    """Vectorized, call-counted evaluation of subsets given as index rows.

    Results agree exactly with ``fitness.subset_objective``: both compute
    sum/k on the same precomputed per-client fitness values (and the same
    entropy term when the coverage bonus is active).
    """

    def __init__(self, objective: SubsetObjective):
        self.objective = objective
        self.fitness = np.array(
            [client_fitness(p, objective.weights) for p in objective.profiles]
        )
        self.evaluations = 0
        self._dists: Optional[np.ndarray] = None
        if objective.coverage_bonus > 0:
            self._dists = np.asarray(objective.class_distributions, dtype=float)

    def value_rows(self, rows: np.ndarray) -> np.ndarray:
        """Objective value for each (m, k) row of distinct client indices."""
        rows = np.asarray(rows)
        k = rows.shape[-1]
        values = self.fitness[rows].sum(axis=-1) / k
        if self._dists is not None:
            pooled = self._dists[rows].sum(axis=-2) / k
            logs = np.log(pooled, out=np.zeros_like(pooled), where=pooled > 0.0)
            entropy = -(pooled * logs).sum(axis=-1)
            n_classes = self._dists.shape[1]
            values = values + self.objective.coverage_bonus * entropy / math.log(
                n_classes
            )
        self.evaluations += rows.shape[0] if rows.ndim > 1 else 1
        return values

    def value_row(self, row: np.ndarray) -> float:
        return float(self.value_rows(np.asarray(row)[None, :])[0])


class BestTracker:
    """Best-subset-so-far bookkeeping with strict-improvement updates.

    Strict improvement means the earliest subset achieving a value is kept,
    which makes tie handling deterministic across runs.
    """

    def __init__(self):
        self.best_row: Optional[np.ndarray] = None
        self.best_value = -math.inf
        self.trace: list = []

    def update(self, rows: np.ndarray, values: np.ndarray) -> None:
        i = int(np.argmax(values))
        if values[i] > self.best_value:
            self.best_value = float(values[i])
            self.best_row = np.array(rows[i], copy=True)

    def close_iteration(self) -> None:
        self.trace.append(self.best_value)
