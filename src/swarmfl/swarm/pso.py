"""Particle swarm optimizer with constriction-style coefficients.

Velocities blend inertia with pulls toward each particle's personal best and
the global best; speeds are clamped so particles cannot overshoot the unit
box in one step.  Because the rank decoding makes the objective piecewise
constant, two stall-prevention measures are always on: velocities start
random instead of zero, and each iteration a small random fraction of the
swarm gets its velocity re-randomized (the classic "craziness" kick).
Particles bounce off the box walls — the offending velocity component flips
sign — rather than parking on them.  One evaluation per particle per
iteration.

Each iteration updates the velocity in place, with the products and sums of
``INERTIA * v + COGNITIVE * r1 * (pbest - x) + SOCIAL * r2 * (gbest - x)``
taken in that order.  The kick draws a whole (population, N) block of U[0,1)
values and maps only the kicked rows to ``-vmax + 2 vmax u``, which is what
``rng.uniform(-vmax, vmax)`` returns from the same draws.  ``support.bounce``
then clamps, steps and reflects in one call.
"""

from __future__ import annotations

import numpy as np

from .support import BatchObjective, bounce, track_best

EVAL_FACTOR = 1

INERTIA = 0.729
COGNITIVE = 1.49445
SOCIAL = 1.49445
VELOCITY_CLAMP = 0.5
CRAZINESS = 0.02


def run(n, k, population, iterations, objective: BatchObjective, rng):
    vmax = VELOCITY_CLAMP

    x = rng.random((population, n))
    v = rng.uniform(-vmax, vmax, (population, n))
    values = objective.value_positions(x)

    pbest = x.copy()
    pbest_val = values.copy()
    best = track_best(x, values)

    for _ in range(iterations):
        r1 = rng.random((population, n))
        r2 = rng.random((population, n))
        r1 *= COGNITIVE
        r1 *= pbest - x
        r2 *= SOCIAL
        r2 *= best[0] - x
        v *= INERTIA
        v += r1
        v += r2
        kicked = rng.random(population) < CRAZINESS
        u = rng.random((population, n))
        v[kicked] = -vmax + (vmax - -vmax) * u[kicked]
        x, v = bounce(x, v, vmax)
        values = objective.value_positions(x)

        improved = values > pbest_val
        pbest[improved] = x[improved]
        pbest_val[improved] = values[improved]
        best = track_best(pbest, pbest_val, best)
        yield
