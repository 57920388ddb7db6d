"""Cuckoo search: Lévy-flight moves plus abandonment of the worst nests.

Each iteration every nest proposes a Lévy step scaled by its distance to the
best nest (greedy replacement), then the worst quarter of nests is rebuilt
uniformly at random.  At most two evaluations per nest per iteration.
"""

from __future__ import annotations

import numpy as np

from .support import BatchObjective, fold_into_box, levy_sample

EVAL_FACTOR = 2

STEP_SCALE = 0.01
LEVY_BETA = 1.5
ABANDON_FRACTION = 0.25


def run(n, k, population, iterations, objective: BatchObjective, rng):
    # At least one nest for any population >= 2.
    n_abandon = int(np.floor(ABANDON_FRACTION * population + 0.5))

    x = rng.random((population, n))
    values = objective.value_positions(x)

    b = int(np.argmax(values))
    best_x = x[b].copy()
    best_val = float(values[b])

    for _ in range(iterations):
        steps = levy_sample(LEVY_BETA, rng, (population, n))
        cand = fold_into_box(x + STEP_SCALE * steps * (x - best_x))
        cand_values = objective.value_positions(cand)
        improved = cand_values > values
        x[improved] = cand[improved]
        values[improved] = cand_values[improved]

        worst = np.argsort(values, kind="stable")[:n_abandon]
        x[worst] = rng.random((n_abandon, n))
        values[worst] = objective.value_positions(x[worst])

        b = int(np.argmax(values))
        if values[b] > best_val:
            best_x = x[b].copy()
            best_val = float(values[b])
        yield
