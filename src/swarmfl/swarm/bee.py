"""Artificial bee colony over food sources in the unit box.

Half the population act as food sources.  Employed bees probe one random
dimension of their source against a random partner; onlookers re-probe
sources picked by fitness-proportional roulette; a source stagnant past the
trial limit is abandoned and re-scouted uniformly.  At most one scout per
iteration, so evaluations stay within twice the population per iteration.

Bees move one after another, each seeing the moves before it.  No draw
depends on the colony's state, so each phase draws its moves as blocks, in a
fixed order: every bee's dimension, then every partner, then every step (an
onlooker phase draws its roulette picks first).  It then splits the phase
into runs in which no move reads what an earlier move of the run may write,
and scores each run in one call: the result is that of a per-bee loop on the
same draws, bit for bit.
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


def _runs(sources, dims, partners):
    """Split moves into maximal runs of moves that read nothing the run writes.

    A move writes its source's row, but changes only its own dimension.  It
    conflicts with an earlier move of the run on the same source, or with one
    that moved the partner's source in the same dimension.  The arguments are
    plain lists.
    """
    start, moved, written = 0, set(), set()
    for m, (i, j, p) in enumerate(zip(sources, dims, partners)):
        if i in moved or (p, j) in written:
            yield start, m
            start, moved, written = m, set(), set()
        moved.add(i)
        written.add((i, j))
    if start < len(sources):
        yield start, len(sources)


def _visit(objective, x, values, trials, sources, rng):
    """Draw and apply a phase's moves in order: greedy replacement and trial counts.

    Draws every move's dimension, then its partner among the other sources
    (drawn in ``0..n_sources-2``, skipping the source), then its step.
    """
    n_sources, n = x.shape
    count = len(sources)
    dims = rng.integers(n, size=count)
    others = rng.integers(n_sources - 1, size=count)
    phis = rng.uniform(-1.0, 1.0, count)
    partners = others + (others >= sources)
    for a, b in _runs(sources.tolist(), dims.tolist(), partners.tolist()):
        src = sources[a:b]
        cand = propose(x, src, dims[a:b], partners[a:b], phis[a:b])
        vals = objective.value_positions(cand)
        better = vals > values[src]
        trials[src] += 1
        if better.any():
            won = src[better]
            x[won] = cand[better]
            values[won] = vals[better]
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
        _visit(objective, x, values, trials, employed, rng)

        weights = np.maximum(values - values.min(), floor)
        picks = rng.random(n_onlookers)
        _visit(objective, x, values, trials, roulette(np.cumsum(weights), picks), rng)

        stale = int(np.argmax(trials))
        if trials[stale] > limit:
            x[stale] = rng.random(n)
            values[stale] = objective.value_positions(x[stale][None, :])[0]
            trials[stale] = 0
        objective.close_iteration()
