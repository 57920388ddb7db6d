"""Artificial bee colony over food sources in the unit box.

Half the population act as food sources.  Employed bees probe one random
dimension of their source against a random partner; onlookers re-probe
sources picked by fitness-proportional roulette; a source stagnant past the
trial limit is abandoned and re-scouted uniformly.  At most one scout per
iteration, so evaluations stay within twice the population per iteration.
"""

from __future__ import annotations

import numpy as np

from .support import BatchObjective, fold_into_box

EVAL_FACTOR = 2

DEFAULTS = {
    "selection_floor": 1e-9,
}


def _neighbor(x, i, n_sources, n, rng):
    j = int(rng.integers(n))
    partner = int(rng.integers(n_sources - 1))
    if partner >= i:
        partner += 1
    phi = rng.uniform(-1.0, 1.0)
    cand = x[i].copy()
    cand[j] = fold_into_box(cand[j] + phi * (cand[j] - x[partner][j]))
    return cand


def run(n, k, population, iterations, objective: BatchObjective, constants, rng):
    floor = constants["selection_floor"]
    n_sources = max(2, population // 2)
    n_onlookers = population - n_sources
    limit = n_sources * n

    x = rng.random((n_sources, n))
    values = objective.value_positions(x)
    trials = np.zeros(n_sources, dtype=int)

    def try_replace(i, cand):
        val = objective.value_positions(cand[None, :])[0]
        if val > values[i]:
            x[i] = cand
            values[i] = val
            trials[i] = 0
        else:
            trials[i] += 1

    for _ in range(iterations):
        for i in range(n_sources):
            try_replace(i, _neighbor(x, i, n_sources, n, rng))

        weights = np.maximum(values - values.min(), floor)
        cum = np.cumsum(weights)
        for _ in range(n_onlookers):
            r = rng.random() * cum[-1]
            i = min(int(np.searchsorted(cum, r, side="right")), n_sources - 1)
            try_replace(i, _neighbor(x, i, n_sources, n, rng))

        stale = int(np.argmax(trials))
        if trials[stale] > limit:
            x[stale] = rng.random(n)
            values[stale] = objective.value_positions(x[stale][None, :])[0]
            trials[stale] = 0
        objective.close_iteration()
