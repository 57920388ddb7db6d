"""Artificial bee colony over food sources in the unit box.

Half the population act as food sources.  Employed bees probe one random
dimension of their source against a random partner; onlookers re-probe
sources picked by fitness-proportional roulette; a source stagnant past the
trial limit is abandoned and re-scouted uniformly.  At most one scout per
iteration, so evaluations stay within twice the population per iteration.

Bees move one after another, each seeing the moves before it, on draws that
read no state.  Each iteration makes four generator calls in per-phase
order: the employed bees' dimensions and partner offsets in one call over
the bounds ``[n]*count + [n_sources-1]*count`` (numpy's 32-bit sampler
answers it as two scalar-bound calls), their steps ``-1.0 + 2.0 * u`` (as
``uniform(-1, 1)`` gives) with the onlookers' roulette picks, then the
onlookers' two blocks; the scout draws last.

Each source keeps its coordinates as Python floats and the rank keys
``(-coordinate, index)``, ``decode_rows``' order, of its weakest member and
its strongest non-member.  Moving coordinate j to v changes the subset
exactly when j is a member and ``(-v, j)`` ranks after the strongest
non-member, or j is not and ``(-v, j)`` ranks before the weakest member.
Only such a move can win (any other scores its source's own value); fewer
than one move in five is one at the default population.  Each phase walks
its moves once, in order; a run ends before the first move that reads its
source, or its partner's coordinate in the moved dimension, where an earlier
changing move of the run may have written.  A run is gathered, decoded and
scored in one call: the result is a per-bee loop's on the same draws.
"""

from __future__ import annotations

import math

import numpy as np

from .support import BatchObjective, decode_rows, roulette

EVAL_FACTOR = 2
SELECTION_FLOOR = 1e-9


def neighbor(own, other, phi):
    """``own`` moved by ``phi`` times its gap to ``other``, reflected into [0,1]:
    bit for bit what ``fold_into_box`` gives, which takes -0.0 to 0.0."""
    step = abs(own + phi * (own - other))
    return step if step <= 1.0 else max(2.0 - step, 0.0)


def edges(coords, k):
    """Rank keys of the weakest member and strongest non-member of ``coords``.

    With k = n, a key ranking after every coordinate's stands in for the latter.
    """
    order = sorted(range(len(coords)), key=coords.__getitem__, reverse=True)
    keys = [(-coords[j], j) for j in order[k - 1 : k + 1]] + [(math.inf, 0)]
    return keys[0], keys[1]


def changes(keys, j, own, v):
    """Whether moving coordinate j from ``own`` to v changes the subset ``keys`` bound."""
    weakest, strongest = keys
    if (-own, j) <= weakest:
        return (-v, j) > strongest
    return (-v, j) < weakest


def _score(objective, x, coords, keys, values, trials, run, dims, steps):
    """Score a run's moves in one call; winners, each its source's last move, take them."""
    cand, n = x.take(run, 0), x.shape[1]
    cand.put([m * n + j for m, j in enumerate(dims)], steps)
    vals = objective.value_rows(decode_rows(cand, objective.k)).tolist()
    for i, j, v, val in zip(run, dims, steps, vals):
        if val > values[i]:
            x[i, j] = coords[i][j] = v
            values[i] = val
            trials[i] = 0
            keys[i] = edges(coords[i], objective.k)


def _visit(objective, x, coords, keys, values, trials, sources, moves, phis):
    """Apply a phase's drawn moves in order: greedy replacement and trial counts.

    ``moves`` lists each move's dimension, then its partner offset among the
    other sources (skipping the source); ``phis`` lists each move's step.
    Only a changing move can win and write its source's row, in its dimension.
    """
    count = len(sources)
    state = (objective, x, coords, keys, values, trials)
    dims, steps = moves[:count], []
    moved, written, start = set(), set(), 0
    for m, (i, j, p, phi) in enumerate(zip(sources, dims, moves[count:], phis)):
        p += p >= i
        if i in moved or (p, j) in written:
            _score(*state, sources[start:m], dims[start:m], steps[start:m])
            moved, written, start = set(), set(), m
        own = coords[i][j]
        v = neighbor(own, coords[p][j], phi)
        if changes(keys[i], j, own, v):
            moved.add(i)
            written.add((i, j))
        steps.append(v)
        trials[i] += 1
    if count:
        _score(*state, sources[start:], dims[start:], steps[start:])


def run(n, k, population, iterations, objective: BatchObjective, rng):
    n_sources = max(2, population // 2)
    n_onlookers = population - n_sources
    limit = n_sources * n
    employed_bounds = np.repeat([n, n_sources - 1], n_sources)
    onlooker_bounds = np.repeat([n, n_sources - 1], n_onlookers)

    x = rng.random((n_sources, n))
    values = objective.value_rows(decode_rows(x, k)).tolist()
    coords, trials = x.tolist(), [0] * n_sources
    keys = [edges(c, k) for c in coords]
    state = (objective, x, coords, keys, values, trials)
    employed = list(range(n_sources))

    for _ in range(iterations):
        # The iteration's four draws, in per-phase order (module docstring).
        moves = rng.integers(employed_bounds).tolist()
        u = rng.random(n_sources + n_onlookers)
        phis = (-1.0 + 2.0 * u[:n_sources]).tolist()
        _visit(*state, employed, moves, phis)

        scores = np.array(values)
        weights = np.maximum(scores - np.minimum.reduce(scores), SELECTION_FLOOR)
        onlookers = roulette(np.add.accumulate(weights), u[n_sources:]).tolist()
        moves = rng.integers(onlooker_bounds).tolist()
        phis = (-1.0 + 2.0 * rng.random(n_onlookers)).tolist()
        _visit(*state, onlookers, moves, phis)

        stale = trials.index(max(trials))
        if trials[stale] > limit:
            x[stale] = rng.random(n)
            coords[stale] = x[stale].tolist()
            keys[stale] = edges(coords[stale], k)
            values[stale] = objective.value_rows(decode_rows(x[stale : stale + 1], k))[0].item()
            trials[stale] = 0
        yield
