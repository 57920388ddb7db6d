"""Ant colony optimization constructing subsets from pheromone and heuristic.

Each ant builds a k-subset by roulette over tau^alpha * eta^beta without
replacement, where eta is the per-client fitness shifted to a positive
floor.  Pheromone evaporates each iteration, the iteration-best subset gets
a fixed deposit, and trail levels are clamped to a bounded band so no client
is ever permanently ruled in or out.  One evaluation per ant per iteration.

All ants of an iteration are drawn at once: one Exp(1) race per ant and
client, each ant keeping the k clients whose races end first
(``support.keyed_sample``), which has the same distribution as the
step-by-step roulette.
"""

from __future__ import annotations

import numpy as np

from .support import BatchObjective, keyed_sample

EVAL_FACTOR = 1

ALPHA = 1.0
BETA = 2.0
EVAPORATION = 0.1
DEPOSIT = 1.0
TAU_INIT = 1.0
TAU_MIN = 0.01
TAU_MAX = 10.0
ETA_FLOOR = 0.01


def run(n, k, population, iterations, objective: BatchObjective, rng):
    tau = np.full(n, TAU_INIT)
    eta = objective.fitness - objective.fitness.min() + ETA_FLOOR
    eta_beta = eta**BETA

    for _ in range(iterations):
        races = rng.standard_exponential((population, n))
        rows = keyed_sample(tau**ALPHA * eta_beta, races, k)
        rows.sort(axis=1)
        values = objective.value_rows(rows)

        tau *= 1.0 - EVAPORATION
        tau[rows[values.argmax()]] += DEPOSIT
        np.maximum(tau, TAU_MIN, out=tau)
        np.minimum(tau, TAU_MAX, out=tau)
        yield
