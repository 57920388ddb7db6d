"""Grey wolf optimizer over the continuous selection encoding.

The best three candidates of the current population lead the pack, with
leaders deduplicated by decoded subset so the three pulls stay distinct even
after the pack has largely converged.  Every wolf moves to the average of
three leader-guided points while the control scalar ``a`` shrinks linearly
from 2 to 0, trading exploration for exploitation.  One objective evaluation
per wolf per iteration.
"""

from __future__ import annotations

import numpy as np

from .support import BatchObjective, decode_rows, fold_into_box

EVAL_FACTOR = 1

DEFAULTS: dict = {}


def run(n, k, population, iterations, objective: BatchObjective, constants, rng):
    x = rng.random((population, n))
    rows = decode_rows(x, k)
    values = objective.value_rows(rows)

    for t in range(iterations):
        a = 2.0 - 2.0 * t / iterations
        order = np.argsort(-values, kind="stable")
        leader_idx = []
        seen = set()
        for j in order:
            key = tuple(rows[j])
            if key not in seen:
                seen.add(key)
                leader_idx.append(j)
            if len(leader_idx) == 3:
                break
        while len(leader_idx) < 3:  # fewer than 3 distinct subsets in the pack
            leader_idx.append(leader_idx[-1])
        pulled = np.zeros_like(x)
        for li in leader_idx:
            leader = x[li]
            r1 = rng.random((population, n))
            r2 = rng.random((population, n))
            big_a = 2.0 * a * r1 - a
            big_c = 2.0 * r2
            pulled += leader - big_a * np.abs(big_c * leader - x)
        x = fold_into_box(pulled / 3.0)
        rows = decode_rows(x, k)
        values = objective.value_rows(rows)
        objective.close_iteration()
