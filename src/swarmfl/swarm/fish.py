"""Artificial fish swarm with a hard per-fish evaluation budget.

Fish inside each other's visual range follow the best visible neighbor, or
swarm toward the local center, unless the neighborhood is too crowded; lone
or crowded fish prey by probing random points in their visual box.  A fish
makes at most ``EVAL_FACTOR`` (3) objective calls per iteration, so the
per-fish cap is the algorithm's budget factor itself.

Fish take their turns one after another, each seeing the moves before it.
Each iteration draws every fish's probe offsets and drift pull up front, and
a turn uses only the draws it needs, so every probe point is known before
the turns start.  A fish is *clear* when no spot another fish can occupy
during its turn (a start position or a probe point) lies within its visual
range: it is alone whatever the others do, and its prey reads and writes only
its own row.  Clearness is judged on one Gram product of squared distances
and its error margin (``support.gram_sq_distances``, shared with glowworm),
so an error can only make a fish not clear.  Each maximal run of clear fish
therefore preys in lockstep, one objective call per probe round; the other
fish take the sequential turn.  A fish that drifts to a new spot is checked
against the later fish's starts.
At the default visual range of 0.3, fish in [0,1]^N with N >= 10 sit about
sqrt(N/6) apart, so nearly every fish is clear.
"""

from __future__ import annotations

import numpy as np

from .support import BatchObjective, fold_into_box, gram_sq_distances

EVAL_FACTOR = 3

VISUAL = 0.3
STEP = 0.1
CROWDING = 0.618


def _farther(points, spots, visual):
    """True where ``points[a]`` is surely more than ``visual`` from ``spots[b]``.

    Demanding the estimate's margin (``support.gram_sq_distances``) beyond
    visual^2 means an error can only call a distant fish near, which sends it
    to the exact sequential turn.
    """
    sq, margin = gram_sq_distances(points, spots)
    return sq > visual * visual + margin


def _prey(objective, x, values, probes, fish):
    """Prey in lockstep: probe round t scores every fish still searching.

    A fish moves to the first of its ``probes`` that beats its value and
    stops searching; a round's calls cover only the fish left.
    """
    for t in range(probes.shape[1]):
        if len(fish) == 0:
            break
        vals = objective.value_positions(probes[fish, t])
        better = vals > values[fish]
        won = fish[better]
        x[won] = probes[won, t]
        values[won] = vals[better]
        fish = fish[~better]


def run(n, k, population, iterations, objective: BatchObjective, rng):
    x = rng.random((population, n))
    values = objective.value_positions(x)
    everyone = np.arange(population)

    def evaluate(point):
        return float(objective.value_positions(point[None, :])[0])

    def turn(i, pull, probes):
        """Fish i's sequential turn; returns True when it drifted."""
        dist = np.linalg.norm(x - x[i], axis=1)
        dist[i] = np.inf
        neighbors = np.flatnonzero(dist < VISUAL)
        used = 0
        if len(neighbors) > 0 and len(neighbors) / population < CROWDING:
            j = neighbors[int(np.argmax(values[neighbors]))]
            target = x[j]  # follow the best visible fish
            if values[j] <= values[i]:
                target = x[neighbors].mean(axis=0)  # swarm toward the center
                used = 1
                if evaluate(target) <= values[i]:
                    target = None
            if target is not None:
                d = target - x[i]
                norm = np.linalg.norm(d)
                if norm > 0.0:
                    x[i] = fold_into_box(x[i] + STEP * pull * d / norm)
                values[i] = evaluate(x[i])
                return True
        _prey(objective, x, values, probes[:, : EVAL_FACTOR - used], everyone[i : i + 1])
        return False

    for _ in range(iterations):
        offsets = rng.uniform(-1.0, 1.0, (population, EVAL_FACTOR, n))
        pulls = rng.random(population)
        start = x.copy()
        probes = fold_into_box(start[:, None] + VISUAL * offsets)

        spots = np.concatenate([start[:, None], probes], axis=1)
        far = _farther(start, spots.reshape(-1, n), VISUAL).reshape(population, population, -1)
        far[everyone, everyone] = True  # a fish's own spots
        clear = far.all(axis=(1, 2))

        i = 0
        while i < population:
            if clear[i]:
                end = i + 1
                while end < population and clear[end]:
                    end += 1
                _prey(objective, x, values, probes, everyone[i:end])
                i = end
                continue
            if turn(i, pulls[i], probes):
                clear[i + 1 :] &= _farther(x[i : i + 1], start[i + 1 :], VISUAL)[0]
            i += 1
        yield
