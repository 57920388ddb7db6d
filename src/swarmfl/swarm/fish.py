"""Artificial fish swarm with a hard per-fish evaluation budget.

Fish inside each other's visual range follow the best visible neighbor, or
swarm toward the local center, unless the neighborhood is too crowded; lone
or crowded fish prey by probing random points in their visual box.  Probes
are capped at three objective calls per fish per iteration, which keeps the
whole algorithm within the documented budget factor of 3 even though the
nominal try_number is 5.
"""

from __future__ import annotations

import numpy as np

from .support import BatchObjective, fold_into_box

EVAL_FACTOR = 3

DEFAULTS = {
    "visual": 0.3,
    "step": 0.1,
    "crowding": 0.618,
    "try_number": 5,
}

_FISH_EVAL_CAP = 3


def run(n, k, population, iterations, objective: BatchObjective, constants, rng):
    visual = constants["visual"]
    step = constants["step"]
    delta = constants["crowding"]
    try_number = int(constants["try_number"])

    x = rng.random((population, n))
    values = objective.value_positions(x)

    def evaluate(point):
        return float(objective.value_positions(point[None, :])[0])

    def drift(origin, target):
        d = target - origin
        norm = np.linalg.norm(d)
        if norm == 0.0:
            return origin.copy()
        return fold_into_box(origin + step * rng.random() * d / norm)

    for _ in range(iterations):
        for i in range(population):
            dist = np.linalg.norm(x - x[i], axis=1)
            dist[i] = np.inf
            neighbors = np.flatnonzero(dist < visual)
            crowded = len(neighbors) / population >= delta
            used = 0

            if len(neighbors) > 0 and not crowded:
                j = neighbors[int(np.argmax(values[neighbors]))]
                if values[j] > values[i]:  # follow the best visible fish
                    x[i] = drift(x[i], x[j])
                    values[i] = evaluate(x[i])
                    continue
                center = x[neighbors].mean(axis=0)  # swarm toward the center
                center_val = evaluate(center)
                used = 1
                if center_val > values[i]:
                    x[i] = drift(x[i], center)
                    values[i] = evaluate(x[i])
                    continue

            for _probe in range(min(try_number, _FISH_EVAL_CAP - used)):
                trial = fold_into_box(x[i] + visual * rng.uniform(-1.0, 1.0, n))
                trial_val = evaluate(trial)
                if trial_val > values[i]:
                    x[i] = trial
                    values[i] = trial_val
                    break
        objective.close_iteration()
