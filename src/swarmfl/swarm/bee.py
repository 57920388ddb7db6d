"""Artificial bee colony over food sources in the unit box.

Half the population act as food sources.  Employed bees probe one random
dimension of their source against a random partner; onlookers re-probe
sources picked by fitness-proportional roulette; a source stagnant past the
trial limit is abandoned and re-scouted uniformly.  At most one scout per
iteration, so evaluations stay within twice the population per iteration.

Bees move one after another, each seeing the moves before it.  No draw
depends on the colony's state, so a phase first draws every bee's dimension,
partner and step (and an onlooker's roulette pick first), as scalar calls in
the order a per-bee loop makes them.  It then splits the phase into runs in
which no move reads what an earlier move of the run may write, and scores
each run in one call: the result is the per-bee loop's, bit for bit.
"""

from __future__ import annotations

import numpy as np

from .support import BatchObjective, fold_into_box, roulette

EVAL_FACTOR = 2

DEFAULTS = {
    "selection_floor": 1e-9,
}


def propose(x, sources, dims, partners, phis):
    """Candidate positions for a batch of moves, one row per move.

    Move m copies source ``sources[m]`` and moves its coordinate ``dims[m]``
    by ``phis[m]`` times its gap to the same coordinate of source
    ``partners[m]``, reflecting at the walls.
    """
    cand = x[sources]
    moves = np.arange(len(sources))
    own = cand[moves, dims]
    cand[moves, dims] = fold_into_box(own + phis * (own - x[partners, dims]))
    return cand


def _draw_moves(rng, count, n, n_sources, pick):
    """Draw ``count`` moves in a per-bee loop's scalar order.

    Each move draws its roulette pick (if ``pick``), its dimension, its
    partner among the other sources and its step.  Partners are drawn in
    ``0..n_sources-2`` and skip the source once it is known.
    """
    picks, phis = np.zeros(count), np.empty(count)
    dims, others = np.empty(count, dtype=int), np.empty(count, dtype=int)
    for m in range(count):
        if pick:
            picks[m] = rng.random()
        dims[m] = rng.integers(n)
        others[m] = rng.integers(n_sources - 1)
        phis[m] = rng.uniform(-1.0, 1.0)
    return picks, dims, others, phis


def _runs(sources, dims, partners):
    """Split moves into maximal runs of moves that read nothing the run writes.

    A move writes its source's row, but changes only its own dimension.  It
    conflicts with an earlier move of the run on the same source, or with one
    that moved the partner's source in the same dimension.
    """
    start, moved, written = 0, set(), set()
    for m, (i, j, p) in enumerate(zip(sources.tolist(), dims.tolist(), partners.tolist())):
        if i in moved or (p, j) in written:
            yield start, m
            start, moved, written = m, set(), set()
        moved.add(i)
        written.add((i, j))
    if start < len(sources):
        yield start, len(sources)


def _visit(objective, x, values, trials, sources, dims, others, phis):
    """Apply a phase's moves in order: greedy replacement and trial counts."""
    partners = others + (others >= sources)
    for a, b in _runs(sources, dims, partners):
        src = sources[a:b]
        cand = propose(x, src, dims[a:b], partners[a:b], phis[a:b])
        vals = objective.value_positions(cand)
        better = vals > values[src]
        won = src[better]
        x[won] = cand[better]
        values[won] = vals[better]
        trials[src] += 1
        trials[won] = 0


def run(n, k, population, iterations, objective: BatchObjective, constants, rng):
    floor = constants["selection_floor"]
    n_sources = max(2, population // 2)
    n_onlookers = population - n_sources
    limit = n_sources * n

    x = rng.random((n_sources, n))
    values = objective.value_positions(x)
    trials = np.zeros(n_sources, dtype=int)
    employed = np.arange(n_sources)

    for _ in range(iterations):
        _, dims, others, phis = _draw_moves(rng, n_sources, n, n_sources, pick=False)
        _visit(objective, x, values, trials, employed, dims, others, phis)

        weights = np.maximum(values - values.min(), floor)
        picks, dims, others, phis = _draw_moves(rng, n_onlookers, n, n_sources, pick=True)
        sources = roulette(np.cumsum(weights), picks)
        _visit(objective, x, values, trials, sources, dims, others, phis)

        stale = int(np.argmax(trials))
        if trials[stale] > limit:
            x[stale] = rng.random(n)
            values[stale] = objective.value_positions(x[stale][None, :])[0]
            trials[stale] = 0
        objective.close_iteration()
