"""Intelligent water drops building subsets over an eroding soil field.

Drops pick unvisited clients with probability proportional to the inverse
soil level, gain velocity on low-soil ground, and erode soil faster where
the travel time is short (short time = high-fitness client), so quality
information accumulates in the soil field.  The iteration-best subset gets a
multiplicative soil reinforcement.  One evaluation per drop per iteration.

A drop erodes only the client it has just visited, so the weights of the
clients still open stay fixed for the whole drop.  Its ordered path is
therefore one keyed sort of Exp(1) races (``support.keyed_sample``), the
same distribution as step-by-step roulette; velocity and erosion then follow
along the path in one vector pass.  Drops stay sequential: each one sees the
soil the previous drops left.

Erosion and reinforcement rates here are deliberately gentle: literal
textbook magnitudes collapse the field after a handful of visits at this
problem scale, which freezes the search on whatever was sampled first.  The
chosen constants keep per-visit erosion at most ~1% of the initial soil and
bound the field to [soil_min, soil_max] so selection probabilities stay
finite and exploration never fully dies.
"""

from __future__ import annotations

import numpy as np

from .support import BatchObjective, BestTracker, keyed_sample

EVAL_FACTOR = 1

DEFAULTS = {
    "soil_init": 1000.0,
    "velocity_init": 100.0,
    "prob_eps": 0.01,
    "velocity_gain": 100.0,
    "time_eps": 0.01,
    "erosion_scale": 100.0,
    "erosion_rate": 0.001,
    "reinforce": 0.9,
    "eta_floor": 0.01,
    "soil_min": 0.01,
    "soil_max": 1e6,
}


def erode(soil, path, eta_inv, constants):
    """Apply one drop's velocity gain and erosion along its ordered path.

    Visits are distinct, so each client's soil is read before its own erosion
    and the step-by-step updates collapse to one running sum for the velocity
    and one vector update of ``soil[path]`` (in place).
    """
    eps = constants["prob_eps"]
    visited = soil[path]
    velocity = constants["velocity_gain"] / (eps + visited)
    # Adding the initial velocity to the first gain keeps the per-step loop's
    # order of additions, so the running sums match it exactly.
    velocity[0] += constants["velocity_init"]
    np.add.accumulate(velocity, out=velocity)
    travel_time = eta_inv[path] / velocity
    delta = constants["erosion_scale"] / (constants["time_eps"] + travel_time**2)
    eroded = visited - constants["erosion_rate"] * delta
    np.maximum(eroded, constants["soil_min"], out=eroded)
    soil[path] = np.minimum(eroded, constants["soil_max"], out=eroded)


def run(n, k, population, iterations, objective: BatchObjective, constants, rng):
    eps = constants["prob_eps"]
    soil_min = constants["soil_min"]
    soil_max = constants["soil_max"]

    soil = np.full(n, constants["soil_init"])
    eta = objective.fitness - objective.fitness.min() + constants["eta_floor"]
    eta_inv = 1.0 / np.maximum(eta, constants["eta_floor"])

    tracker = BestTracker()
    for _ in range(iterations):
        races = rng.standard_exponential((population, n))
        paths = np.empty((population, k), dtype=int)
        for d in range(population):
            paths[d] = keyed_sample(1.0 / (eps + soil), races[d], k)
            erode(soil, paths[d], eta_inv, constants)
        rows = np.sort(paths, axis=1)
        values = objective.value_rows(rows)
        tracker.update(rows, values)

        best = rows[int(np.argmax(values))]
        soil[best] = np.clip(soil[best] * constants["reinforce"], soil_min, soil_max)
        tracker.close_iteration()
    return tracker
