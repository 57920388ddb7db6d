"""Intelligent water drops building subsets over an eroding soil field.

Drops pick unvisited clients with probability proportional to the inverse
soil level, gain velocity on low-soil ground, and erode soil faster where
the travel time is short (short time = high-fitness client), so quality
information accumulates in the soil field.  The iteration-best subset gets a
multiplicative soil reinforcement.  One evaluation per drop per iteration.

A drop erodes only the client it has just visited, so the weights of the
clients still open stay fixed for the whole drop.  Its ordered path is
therefore one keyed sort of Exp(1) races (``support.keyed_sample``), the
same distribution as step-by-step roulette.  Velocity and erosion then run
along the path one visit at a time on plain floats, and each eroded client's
sampling weight is written into the weight vector in place, through a
``memoryview``, as soon as its soil changes; clients off the path keep
theirs.  Drops stay sequential: each one sees the soil the previous drops
left.

Erosion and reinforcement rates here are deliberately gentle: literal
textbook magnitudes collapse the field after a handful of visits at this
problem scale, which freezes the search on whatever was sampled first.  The
chosen constants keep per-visit erosion at most ~1% of the initial soil and
bound the field to [SOIL_MIN, SOIL_MAX] so selection probabilities stay
finite and exploration never fully dies.
"""

from __future__ import annotations

import numpy as np

from .support import BatchObjective, keyed_sample

EVAL_FACTOR = 1

SOIL_INIT = 1000.0
VELOCITY_INIT = 100.0
PROB_EPS = 0.01
VELOCITY_GAIN = 100.0
TIME_EPS = 0.01
EROSION_SCALE = 100.0
EROSION_RATE = 0.001
REINFORCE = 0.9
ETA_FLOOR = 0.01
SOIL_MIN = 0.01
SOIL_MAX = 1e6


def erode(soil, weights, path, eta_inv):
    """Apply one drop's velocity gain and erosion along its ordered path.

    ``soil`` and ``eta_inv`` are lists of floats, ``weights`` a writable
    float buffer (a ``memoryview`` of the sampling weights) and ``path`` a
    list of distinct indices.  Each visit reads its client's soil before
    eroding it, stores the eroded soil and writes the client's new sampling
    weight ``1 / (PROB_EPS + soil)``; the velocity gains add in visit order.
    """
    # Local names: the loop runs once per visit of every drop.
    eps = PROB_EPS
    gain = VELOCITY_GAIN
    time_eps = TIME_EPS
    scale = EROSION_SCALE
    rate = EROSION_RATE
    soil_min = SOIL_MIN
    soil_max = SOIL_MAX
    velocity = VELOCITY_INIT
    for i in path:
        s = soil[i]
        velocity += gain / (eps + s)
        t = eta_inv[i] / velocity
        s -= rate * (scale / (time_eps + t * t))
        # max with soil_min, then min with soil_max, without two builtin calls
        if s < soil_min:
            s = soil_min
        if s > soil_max:
            s = soil_max
        soil[i] = s
        weights[i] = 1.0 / (eps + s)


def run(n, k, population, iterations, objective: BatchObjective, rng):
    soil = [SOIL_INIT] * n
    weights = np.full(n, 1.0 / (PROB_EPS + SOIL_INIT))
    # Writes through the view store one C double each, with no array scalar.
    buffer = memoryview(weights)
    eta = objective.fitness - objective.fitness.min() + ETA_FLOOR
    eta_inv = (1.0 / eta).tolist()

    for _ in range(iterations):
        races = rng.standard_exponential((population, n))
        paths = []
        for d in range(population):
            path = keyed_sample(weights, races[d], k).tolist()
            erode(soil, buffer, path, eta_inv)
            paths.append(path)
        rows = np.array(paths)
        rows.sort(axis=1)
        values = objective.value_rows(rows)

        for i in rows[values.argmax()].tolist():
            s = min(max(soil[i] * REINFORCE, SOIL_MIN), SOIL_MAX)
            soil[i] = s
            buffer[i] = 1.0 / (PROB_EPS + s)
        yield
