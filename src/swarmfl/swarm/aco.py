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

from .support import BatchObjective, BestTracker, keyed_sample

EVAL_FACTOR = 1

DEFAULTS = {
    "alpha": 1.0,
    "beta": 2.0,
    "evaporation": 0.1,
    "deposit": 1.0,
    "tau_init": 1.0,
    "tau_min": 0.01,
    "tau_max": 10.0,
    "eta_floor": 0.01,
}


def run(n, k, population, iterations, objective: BatchObjective, constants, rng):
    alpha = constants["alpha"]
    beta = constants["beta"]
    rho = constants["evaporation"]
    deposit = constants["deposit"]
    tau_min = constants["tau_min"]
    tau_max = constants["tau_max"]

    tau = np.full(n, constants["tau_init"])
    eta = objective.fitness - objective.fitness.min() + constants["eta_floor"]

    tracker = BestTracker()
    for _ in range(iterations):
        races = rng.standard_exponential((population, n))
        rows = np.sort(keyed_sample(tau**alpha * eta**beta, races, k), axis=1)
        values = objective.value_rows(rows)
        tracker.update(rows, values)

        best = int(np.argmax(values))
        tau *= 1.0 - rho
        tau[rows[best]] += deposit
        np.clip(tau, tau_min, tau_max, out=tau)
        tracker.close_iteration()
    return tracker
