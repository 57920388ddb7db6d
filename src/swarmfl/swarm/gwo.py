"""Grey wolf optimizer over the continuous selection encoding.

The best three candidates of the current population lead the pack, with
leaders deduplicated by decoded subset so the three pulls stay distinct even
after the pack has largely converged.  Every wolf moves to the average of
three leader-guided points while the control scalar ``a`` shrinks linearly
from 2 to 0, trading exploration for exploitation.  One objective evaluation
per wolf per iteration.

An iteration draws all its coefficients as one ``(3, 2, population, N)``
block, in the order of one ``r1, r2`` pair per leader, and computes the three
leader pulls as one array expression.
"""

from __future__ import annotations

import numpy as np

from .support import BatchObjective, decode_rows, fold_into_box

EVAL_FACTOR = 1


def _leaders(values: np.ndarray, rows: np.ndarray) -> list:
    """Indices of the three best wolves with distinct decoded subsets.

    Ties in value go to the lower index.  With fewer than three distinct
    subsets in the pack, the last leader found is repeated.
    """
    picked = []
    seen = set()
    row_lists = rows.tolist()
    for j in (-values).argsort(kind="stable").tolist():
        key = tuple(row_lists[j])
        if key not in seen:
            seen.add(key)
            picked.append(j)
            if len(picked) == 3:
                return picked
    return picked + [picked[-1]] * (3 - len(picked))


def run(n, k, population, iterations, objective: BatchObjective, rng):
    x = rng.random((population, n))
    rows = decode_rows(x, k)
    values = objective.value_rows(rows)

    for t in range(iterations):
        a = 2.0 - 2.0 * t / iterations
        lead = x[_leaders(values, rows)][:, None, :]
        r = rng.random((3, 2, population, n))
        p = lead - (2.0 * a * r[:, 0] - a) * np.abs(2.0 * r[:, 1] * lead - x)
        # Leader order: float addition does not associate, and this order
        # fixes the positions a seed produces.
        x = fold_into_box((p[0] + p[1] + p[2]) / 3.0)
        rows = decode_rows(x, k)
        values = objective.value_rows(rows)
        yield
