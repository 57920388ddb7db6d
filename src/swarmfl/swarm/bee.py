"""Artificial bee colony over food sources in the unit box.

Half the population act as food sources.  Employed bees probe one random
dimension of their source against a random partner; onlookers re-probe
sources picked by fitness-proportional roulette; a source stagnant past the
trial limit is abandoned and re-scouted uniformly.  At most one scout per
iteration, so evaluations stay within twice the population per iteration.

Bees move one after another, each seeing the moves before it.  No draw
depends on the colony's state, so each iteration draws its moves up front in
four generator calls, in the order in which per-phase blocks would draw
them: the employed bees' dimensions and partner offsets as one bounded-integer
call, their steps and the onlookers' roulette picks as one ``random`` call,
then the onlookers' dimensions and partner offsets, then their steps; the
scout's draw follows both phases.  numpy draws bounded integers through the
same 32-bit sampler for an array bound as for a scalar one, so one call over
the bounds ``[n]*count + [n_sources-1]*count`` gives the values, and leaves
the generator state, of two scalar-bound calls of ``count`` draws each.  A
step is ``-1.0 + 2.0 * u``, which is what ``uniform(-1, 1)`` returns for the
same ``u``.  The colony keeps each source's decoded subset next to its
position.  A move whose candidate decodes to its source's subset scores
exactly the source's value, so it cannot win and writes nothing; at the
default population, on 10/3 to 50/20 problems, fewer than one move in five
changes the subset.  The phase is scored in runs: from the current state, the
remaining moves are proposed and decoded, and a run ends at the first move
whose source, or whose partner's coordinate in the moved dimension, an
earlier subset-changing move of the run may have written.  Every move of a
run is scored, in order, in one call: the result is that of a per-bee loop on
the same draws, bit for bit.
"""

from __future__ import annotations

import numpy as np

from .support import BatchObjective, decode_rows, fold_into_box, roulette

EVAL_FACTOR = 2

SELECTION_FLOOR = 1e-9


def propose(x, sources, dims, partners, phis):
    """Candidate positions for a batch of moves, one row per move.

    Move m copies source ``sources[m]`` and moves its coordinate ``dims[m]``
    by ``phis[m]`` times its gap to the same coordinate of source
    ``partners[m]``, reflecting at the walls.
    """
    own = x[sources, dims]
    cand = x[sources]
    cand[np.arange(len(sources)), dims] = fold_into_box(
        own + phis * (own - x[partners, dims])
    )
    return cand


def _run_end(sources, dims, partners, changed):
    """Length of the longest prefix of moves that reads nothing the prefix writes.

    Only a move whose candidate changes its source's subset can win, so only
    such a move writes: its source's row and its own dimension.  A later move
    conflicts with it if it has the same source, or if its partner is that
    source and it moves the same dimension.  The arguments are plain lists.
    """
    moved, written = set(), set()
    for m, (i, j, p, c) in enumerate(zip(sources, dims, partners, changed)):
        if i in moved or (p, j) in written:
            return m
        if c:
            moved.add(i)
            written.add((i, j))
    return len(sources)


def _visit(objective, x, rows, values, trials, sources, moves, phis):
    """Apply a phase's drawn moves in order: greedy replacement and trial counts.

    ``moves`` holds every move's dimension, then its partner offset among the
    other sources (in ``0..n_sources-2``, skipping the source; shifted into a
    partner index in place); ``phis`` holds every move's step.
    """
    n_sources = len(x)
    count = len(sources)
    dims, partners = moves[:count], moves[count:]
    partners += partners >= sources
    start = 0
    while start < count:
        src, dim, partner = sources[start:], dims[start:], partners[start:]
        cand = propose(x, src, dim, partner, phis[start:])
        crow = decode_rows(cand, rows.shape[1])
        changed = np.logical_or.reduce(crow != rows[src], axis=1)
        end = _run_end(src.tolist(), dim.tolist(), partner.tolist(), changed.tolist())
        if start + end < count:
            src, cand, crow = src[:end], cand[:end], crow[:end]
        vals = objective.value_rows(crow)
        # A source may recur in a run, and every visit counts as a trial; a
        # winner is its source's last move in the run, so its reset comes last.
        trials += np.bincount(src, minlength=n_sources)
        better = vals > values[src]
        if better.any():
            won = src[better]
            x[won] = cand[better]
            rows[won] = crow[better]
            values[won] = vals[better]
            trials[won] = 0
        start += end


def run(n, k, population, iterations, objective: BatchObjective, rng):
    n_sources = max(2, population // 2)
    n_onlookers = population - n_sources
    limit = n_sources * n
    employed_bounds = np.repeat([n, n_sources - 1], n_sources)
    onlooker_bounds = np.repeat([n, n_sources - 1], n_onlookers)

    x = rng.random((n_sources, n))
    rows = decode_rows(x, k)
    values = objective.value_rows(rows)
    trials = np.zeros(n_sources, dtype=int)
    employed = np.arange(n_sources)

    for _ in range(iterations):
        # The iteration's four draws, in per-phase order (module docstring).
        moves = rng.integers(employed_bounds)
        u = rng.random(n_sources + n_onlookers)
        phis = -1.0 + 2.0 * u[:n_sources]
        _visit(objective, x, rows, values, trials, employed, moves, phis)

        weights = np.maximum(values - np.minimum.reduce(values), SELECTION_FLOOR)
        onlookers = roulette(np.add.accumulate(weights), u[n_sources:])
        moves = rng.integers(onlooker_bounds)
        phis = -1.0 + 2.0 * rng.random(n_onlookers)
        _visit(objective, x, rows, values, trials, onlookers, moves, phis)

        stale = trials.argmax()
        if trials[stale] > limit:
            x[stale] = rng.random(n)
            rows[stale] = decode_rows(x[stale], k)
            values[stale] = objective.value_rows(rows[stale][None, :])[0]
            trials[stale] = 0
        yield
