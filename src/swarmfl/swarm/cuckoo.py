"""Cuckoo search: Lévy-flight moves plus abandonment of the worst nests.

Each iteration every nest proposes a Lévy step scaled by its distance to the
best nest (greedy replacement), then the worst quarter of nests is rebuilt
uniformly at random.  At most two evaluations per nest per iteration.

The rebuilt nests' positions read no score, so they are drawn right after the
Lévy steps, with nothing drawn in between, and scored with the Lévy
candidates in one evaluator call, candidates first.  The evaluator keeps the
first strict maximum in row order and a row's value does not depend on its
batch, so this gives the subset, values and trace of scoring the two batches
in two calls.  After greedy replacement the worst nests take the pre-drawn
positions and their pre-scored values.
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
        rebuilt = rng.random((n_abandon, n))
        scored = objective.value_positions(np.concatenate([cand, rebuilt]))
        cand_values, rebuilt_values = scored[:population], scored[population:]

        improved = cand_values > values
        np.copyto(x, cand, where=improved[:, None])
        np.copyto(values, cand_values, where=improved)

        worst = np.argsort(values, kind="stable")[:n_abandon]
        x[worst] = rebuilt
        values[worst] = rebuilt_values

        b = int(np.argmax(values))
        if values[b] > best_val:
            best_x = x[b].copy()
            best_val = float(values[b])
        yield
