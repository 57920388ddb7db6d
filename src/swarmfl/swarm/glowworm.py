"""Glowworm swarm optimization with luciferin-guided local movement.

Each glowworm carries decaying luciferin replenished from its current
objective value and moves a small fixed step toward a roulette-chosen
brighter neighbor inside its adaptive decision radius.  A glowworm with no
brighter neighbor is a local champion; instead of standing still (which
would stop producing new candidate subsets entirely) it probes a uniform
random offset of scale ``IDLE_PROBE`` around itself.  Movement decisions use
a synchronous snapshot of the swarm, so a whole iteration is one step: one
neighbor matrix, one roulette per row over the brighter neighbors, and one
block of moves and probes.  Neighbors come from one Gram product of squared
distances (``support.gram_sq_distances``, shared with fish); a pair whose
estimate lies within the error margin of radius^2 is settled by its exact
norm, so the matrix is bit for bit the one the exact pairwise norms give.
One evaluation per glowworm per iteration.
"""

from __future__ import annotations

import math

import numpy as np

from .support import BatchObjective, fold_into_box, gram_sq_distances, roulette

EVAL_FACTOR = 1

LUCIFERIN_DECAY = 0.4
LUCIFERIN_GAIN = 0.6
LUCIFERIN_INIT = 5.0
STEP = 0.03
RADIUS_GAIN = 0.08
TARGET_NEIGHBORS = 5
IDLE_PROBE = 0.25


def _exact_within(snapshot, rows, cols, radius):
    """Whether each pair is within its row's radius, by the exact norm.

    Bit for bit ``np.linalg.norm(d, axis=-1) < radius[rows]``.
    """
    d = snapshot[rows] - snapshot[cols]
    return np.sqrt(np.add.reduce(d * d, -1)) < radius[rows]


def step_swarm(snapshot, lucif, radius, r_sense, picks, probes):
    """Move every glowworm once from a synchronous snapshot.

    ``picks`` holds one U[0,1) draw per glowworm for its neighbor roulette and
    ``probes`` one uniform offset row per glowworm for the idle probe; a draw
    is used only by the glowworms that need it.  Returns the moved positions
    and the updated decision radii.
    """
    # Neighbors within the radius, decided as the exact pairwise norm would
    # decide them: the Gram estimate settles every pair further than its
    # margin from radius^2, and only the pairs inside that band take the
    # exact norm.
    sq, margin = gram_sq_distances(snapshot, snapshot)
    gap = sq - (radius * radius)[:, None]
    np.fill_diagonal(gap, np.inf)
    within = gap < -margin
    band = np.flatnonzero(np.abs(gap) <= margin)
    if band.size:
        rows, cols = np.divmod(band, len(snapshot))
        within.flat[band] = _exact_within(snapshot, rows, cols, radius)
    brighter = within & (lucif[None, :] > lucif[:, None])
    counts = brighter.sum(axis=1)

    # Roulette over each row's brighter neighbors, weighted by luciferin gap.
    # Non-neighbors add a zero gap, so the cumulative sums at the neighbors
    # equal those over the neighbors alone.  A U[0,1) pick times the row total
    # rounds to below that total, so the first sum above it is a neighbor's.
    # Rows without a neighbor count every column; their target is only kept
    # in range, since they do not move toward it.
    cum = np.cumsum(np.where(brighter, lucif[None, :] - lucif[:, None], 0.0), axis=1)
    target = roulette(cum, picks)

    d = snapshot[target] - snapshot
    norm = np.sqrt(np.add.reduce(d * d, -1))
    moves = (counts > 0) & (norm > 0.0)  # coincident positions can differ in luciferin
    pull = STEP * d / np.where(moves, norm, 1.0)[:, None]  # idle rows take the probe
    moved = fold_into_box(snapshot + np.where(moves[:, None], pull, probes))
    gain = RADIUS_GAIN * (TARGET_NEIGHBORS - counts)
    return moved, np.minimum(r_sense, np.maximum(0.0, radius + gain))


def run(n, k, population, iterations, objective: BatchObjective, rng):
    r_sense = 0.5 * math.sqrt(n)

    x = rng.random((population, n))
    values = objective.value_positions(x)

    luciferin = np.full(population, LUCIFERIN_INIT)
    radius = np.full(population, r_sense)

    for _ in range(iterations):
        luciferin = (1.0 - LUCIFERIN_DECAY) * luciferin + LUCIFERIN_GAIN * values
        picks = rng.random(population)
        probes = rng.uniform(-IDLE_PROBE, IDLE_PROBE, (population, n))
        x, radius = step_swarm(x, luciferin, radius, r_sense, picks, probes)
        values = objective.value_positions(x)
        yield
