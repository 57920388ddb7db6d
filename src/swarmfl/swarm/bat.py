"""Bat algorithm: frequency-tuned velocities with a loudness/pulse schedule.

Bats fly at random frequencies relative to the best position while a second
candidate per bat takes a Gaussian local walk around that best, scaled by the
mean loudness.  Both candidates are scored every iteration, flights then
walks in one evaluator call — the flights carry exploration, the walks refine
the incumbent — so the budget factor is 2.  The pulse schedule picks which of
the two a bat considers adopting; a candidate replaces its bat only when it
improves and a loudness coin-flip accepts it, after which that bat's loudness
decays.

Velocities start random and are clamped to +/-``VELOCITY_CLAMP``; a flight
that would leave the unit box bounces, flipping the offending velocity
component, so velocities cannot pin at the clamp and freeze the flight.
``support.bounce`` does the clamp, the step and the reflection in one call.
The walk's scale is the mean loudness, summed by ``np.add.reduce`` and divided
by the population, which is what ``loud.mean()`` computes, without its
wrapper.
"""

from __future__ import annotations

import numpy as np

from .support import BatchObjective, bounce, fold_into_box, track_best

EVAL_FACTOR = 2

FREQ_MAX = 2.0
LOUDNESS = 1.0
LOUDNESS_DECAY = 0.95
PULSE_RATE = 0.5
PULSE_GROWTH = 0.9
WALK_SCALE = 0.3
VELOCITY_CLAMP = 0.5


def run(n, k, population, iterations, objective: BatchObjective, rng):
    vmax = VELOCITY_CLAMP

    x = rng.random((population, n))
    v = rng.uniform(-vmax, vmax, (population, n))
    loud = np.full(population, LOUDNESS)
    values = objective.value_positions(x)

    best = track_best(x, values)

    for t in range(iterations):
        pulse = PULSE_RATE * (1.0 - np.exp(-PULSE_GROWTH * t))
        freq = rng.uniform(0.0, FREQ_MAX, population)
        flight, v = bounce(x, v + freq[:, None] * (x - best[0]), vmax)

        walk_gate = rng.random(population) > pulse
        eps = rng.normal(0.0, 1.0, (population, n))
        local = fold_into_box(best[0] + WALK_SCALE * eps * (np.add.reduce(loud) / population))

        scored = objective.value_positions(np.concatenate([flight, local]))
        flight_values, local_values = scored[:population], scored[population:]

        cand = np.where(walk_gate[:, None], local, flight)
        cand_values = np.where(walk_gate, local_values, flight_values)
        accept = (rng.random(population) < loud) & (cand_values > values)
        x[accept] = cand[accept]
        values[accept] = cand_values[accept]
        loud[accept] *= LOUDNESS_DECAY

        best = track_best(x, values, best)
        yield
