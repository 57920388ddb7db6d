"""Glowworm swarm optimization with luciferin-guided local movement.

Each glowworm carries decaying luciferin replenished from its current
objective value and moves a small fixed step toward a roulette-chosen
brighter neighbor inside its adaptive decision radius.  A glowworm with no
brighter neighbor is a local champion; instead of standing still (which
would stop producing new candidate subsets entirely) it probes a uniform
random offset of scale ``idle_probe`` around itself.  Movement decisions use
a synchronous snapshot of the swarm, so a whole iteration is one step: one
pairwise-distance matrix, one roulette per row over the brighter neighbors,
and one block of probes.  One evaluation per glowworm per iteration.
"""

from __future__ import annotations

import math

import numpy as np

from .support import BatchObjective, BestTracker, decode_rows, fold_into_box

EVAL_FACTOR = 1

DEFAULTS = {
    "luciferin_decay": 0.4,
    "luciferin_gain": 0.6,
    "luciferin_init": 5.0,
    "step": 0.03,
    "radius_gain": 0.08,
    "target_neighbors": 5,
    "idle_probe": 0.25,
}


def step_swarm(snapshot, lucif, radius, constants, r_sense, picks, probes):
    """Move every glowworm once from a synchronous snapshot.

    ``picks`` holds one U[0,1) draw per glowworm for its neighbor roulette and
    ``probes`` one uniform offset row per glowworm for the idle probe; a draw
    is used only by the glowworms that need it.  Returns the moved positions
    and the updated decision radii.
    """
    step = constants["step"]
    probe_scale = constants["idle_probe"]

    dist = np.linalg.norm(snapshot[:, None, :] - snapshot[None, :, :], axis=-1)
    np.fill_diagonal(dist, np.inf)
    brighter = (dist < radius[:, None]) & (lucif[None, :] > lucif[:, None])
    counts = brighter.sum(axis=1)

    # Roulette over each row's brighter neighbors, weighted by luciferin gap.
    # Non-neighbors add a zero gap, so the cumulative sums at the neighbors
    # equal those over the neighbors alone.  A U[0,1) pick times the row total
    # rounds to below that total, so the first sum above it is a neighbor's.
    # Rows without a neighbor count every column; their target is only kept
    # in range, since they do not move toward it.
    cum = np.cumsum(np.where(brighter, lucif[None, :] - lucif[:, None], 0.0), axis=1)
    chosen = (cum <= (picks * cum[:, -1])[:, None]).sum(axis=1)
    target = np.minimum(chosen, len(snapshot) - 1)

    d = snapshot[target] - snapshot
    norm = np.linalg.norm(d, axis=1)
    moves = (counts > 0) & (norm > 0.0)  # coincident positions can differ in luciferin
    moved = snapshot.copy()
    moved[moves] = fold_into_box(snapshot[moves] + step * d[moves] / norm[moves, None])
    if probe_scale > 0.0:
        idle = ~moves
        moved[idle] = fold_into_box(snapshot[idle] + probes[idle])
    gain = constants["radius_gain"] * (constants["target_neighbors"] - counts)
    return moved, np.minimum(r_sense, np.maximum(0.0, radius + gain))


def run(n, k, population, iterations, objective: BatchObjective, constants, rng):
    rho = constants["luciferin_decay"]
    gamma = constants["luciferin_gain"]
    probe_scale = constants["idle_probe"]
    r_sense = 0.5 * math.sqrt(n)

    x = rng.random((population, n))
    rows = decode_rows(x, k)
    values = objective.value_rows(rows)
    tracker = BestTracker()
    tracker.update(rows, values)

    luciferin = np.full(population, constants["luciferin_init"])
    radius = np.full(population, r_sense)

    for _ in range(iterations):
        luciferin = (1.0 - rho) * luciferin + gamma * values
        picks = rng.random(population)
        probes = rng.uniform(-probe_scale, probe_scale, (population, n))
        x, radius = step_swarm(x, luciferin, radius, constants, r_sense, picks, probes)

        rows = decode_rows(x, k)
        values = objective.value_rows(rows)
        tracker.update(rows, values)
        tracker.close_iteration()
    return tracker
