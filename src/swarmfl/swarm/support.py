"""Shared machinery for the subset-selection optimizers.

All nine algorithms maximize the same objective over k-element subsets of a
client pool.  Continuous algorithms move points in [0,1]^N and decode them by
rank; constructive algorithms assemble index sets directly.  Everything here
is deterministic given the caller's generator.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from ..fitness import SubsetObjective, client_fitness

__all__ = [
    "bounce",
    "decode_rows",
    "fold_into_box",
    "gram_sq_distances",
    "keyed_sample",
    "levy_sample",
    "roulette",
    "BatchObjective",
]


def decode_rows(coords: np.ndarray, k: int) -> np.ndarray:
    """Rank-decode a (m, N) batch of positions into sorted (m, k) index rows.

    Row i holds the indices of the k largest coordinates of position i; ties
    go to the lower index (stable sort on the negated coordinates).
    """
    picked = (-coords).argsort(axis=-1, kind="stable")[..., :k]
    picked.sort(axis=-1)
    return picked


def _levy_sigma(beta: float) -> float:
    num = math.gamma(1.0 + beta) * math.sin(math.pi * beta / 2.0)
    den = math.gamma((1.0 + beta) / 2.0) * beta * 2.0 ** ((beta - 1.0) / 2.0)
    return (num / den) ** (1.0 / beta)


def levy_sample(beta: float, rng: np.random.Generator, size=None):
    """Heavy-tailed step via Mantegna's method: u / |v|^(1/beta).

    u ~ Normal(0, sigma_u^2) and v ~ Normal(0, 1), where sigma_u depends only
    on beta.  With ``size`` given, draws the whole block in one u-then-v pass.
    """
    if not 1.0 < beta <= 2.0:
        raise ValueError(f"beta must be in (1, 2], got {beta}")
    sigma = _levy_sigma(beta)
    u = rng.normal(0.0, sigma, size)
    v = rng.normal(0.0, 1.0, size)
    return u / np.abs(v) ** (1.0 / beta)


def keyed_sample(weights: np.ndarray, races: np.ndarray, k: int) -> np.ndarray:
    """First k indices in ascending order of ``races / weights``, per row.

    With ``races`` independent Exp(1) draws (one per weight, any leading batch
    shape), the returned order has the distribution of k rounds of roulette
    without replacement with probabilities proportional to the positive
    ``weights``: index i finishes an Exp(w_i) race, and the first finisher
    among those left is i with probability w_i / sum(w).  (Efraimidis &
    Spirakis, IPL 2006.)  The order is kept: column j is the (j+1)-th pick.
    ``races`` is overwritten with the keys ``races / weights``, so each block
    of draws serves one call.
    """
    races /= weights
    return races.argsort(axis=-1, kind="stable")[..., :k]


def roulette(cum: np.ndarray, u) -> np.ndarray:
    """Roulette pick: the first index whose cumulative weight exceeds ``u * total``.

    ``cum`` holds non-decreasing cumulative weights along its last axis, and
    ``u`` holds U[0,1) draws that broadcast against its leading axes (or add
    one).  Counting the sums at or below the threshold equals
    ``searchsorted(cum, u * total, side="right")``.  The pick is clipped to
    the last index, in case rounding puts the threshold at the total.
    """
    threshold = u * cum[..., -1]
    return np.minimum(np.add.reduce(cum <= threshold[..., None], -1), cum.shape[-1] - 1)


def fold_into_box(coords: np.ndarray) -> np.ndarray:
    """Reflect out-of-box coordinates back into [0,1].

    Plain clamping piles coordinates up on the walls, where rank decoding
    degenerates into index-order tie-breaking; reflection keeps them spread.
    Coordinates with |x| > 2 land on the 0 wall.  Four ufunc calls (``abs``,
    ``2.0 - folded``, ``minimum``, ``maximum``) keep this cheap on the single
    rows and small batches that fish moves.  bee folds its one moved
    coordinate on plain floats, to the same bits (``bee.neighbor``).
    """
    folded = np.abs(coords)
    return np.maximum(np.minimum(folded, 2.0 - folded), 0.0)


def gram_sq_distances(points: np.ndarray, spots: Optional[np.ndarray] = None):
    """Squared distances from one Gram product, and the margin that makes them exact.

    Returns the (m, p) estimates |a|^2 + |b|^2 - 2 a.b between ``points[a]``
    and ``spots[b]``, and ``margin = 4 n (n + 2) eps`` for n coordinates.
    Without ``spots``, ``points`` against themselves, their norms taken once.
    With every coordinate in [0,1], comparing an estimate with ``r * r``
    decides ``sqrt(add.reduce(d * d, -1)) < r`` for ``d = points[a] -
    spots[b]`` (bit for bit what ``np.linalg.norm`` computes) whenever the
    two differ by more than the margin: an estimate above ``r * r + margin``
    means the exact norm is at least r, one below ``r * r - margin`` means it
    is less.  With u = eps / 2 and S <= n the true squared distance, the
    margin, (4 n^2 + 8 n) eps, covers:

    - the Gram estimate's error, at most 4 n gamma_n + 3 n u, about
      (2 n^2 + 1.5 n) eps, whatever the summation order;
    - the exact sum of squares' error, at most gamma_(n+2) S, about
      (n^2 / 2 + n) eps;
    - rounding ``r * r`` and the square root, which move the threshold to
      r^2 (1 - 2 eps) on the near side: at most 2.5 eps r^2 <= 5 n eps for
      r^2 <= 2 n.  A larger r lies beyond every pair in the box: no estimate
      reaches ``r * r + margin``, and the exact norm stays below r.

    That is (2.5 n^2 + 7.5 n) eps, leaving (1.5 n^2 + 0.5 n) eps for the
    higher-order terms and the rounding of the comparison itself.
    """
    n = points.shape[-1]
    norms = np.add.reduce(points * points, -1)
    spot_norms = norms if spots is None else np.add.reduce(spots * spots, -1)
    gram = points @ (points if spots is None else spots).T
    return norms[:, None] + spot_norms - 2.0 * gram, 4.0 * n * (n + 2) * 2.0**-52


def bounce(x: np.ndarray, v: np.ndarray, vmax: float):
    """Clamp ``v`` to +/-``vmax``, step ``x`` by it off the box walls.

    Returns the new position and velocity as fresh arrays; neither argument
    is changed.  Each clamped velocity component whose step leaves [0,1]
    flips sign, and the step is folded back into the box, so a velocity
    clamped at its limit cannot keep pushing a coordinate into a wall.  The
    fold moves exactly the steps that left the box (for finite input,
    ``folded != raw`` is ``(raw < 0) | (raw > 1)``), so those components are
    found from it and negated in place.
    """
    speed = np.maximum(v, -vmax)
    np.minimum(speed, vmax, out=speed)
    raw = x + speed
    folded = fold_into_box(raw)
    np.negative(speed, out=speed, where=folded != raw)
    return folded, speed


# The largest |fitness| a certificate accepts.  The searches sum score gaps
# (bee, glowworm) and multiply squared gaps by trail levels of at most 10
# (aco); below 2**500 none of that comes near overflow.
_SCORE_LIMIT = 2.0**500


class BatchObjective:
    """Budgeted, vectorized evaluation of subsets with best-so-far tracking.

    This is the one place a search scores candidates.  Values match
    ``fitness.subset_objective`` up to the order of summation: both compute
    sum/k on the same precomputed per-client fitness values (and the same
    entropy term when the coverage bonus is active), but numpy sums eight or
    more terms pairwise and Python's ``sum`` in sequence.  Without the bonus
    the two differ by at most ``k * 2**-52`` times the mean ``|fitness|`` of
    the row, a few ulps.  Every scored row counts against ``budget``; a
    call that would take ``evaluations`` past it raises ``RuntimeError``
    before scoring anything.  The best row is replaced only on strict
    improvement, so the earliest subset achieving a value is kept and tie
    handling is deterministic across runs.  It keeps no trace: ``optimize``
    runs the iterations and records ``best_value`` after each.

    Without the coverage bonus the objective is separable, and its exact
    optimum is the top-k clients (``fitness.greedy_topk``).  ``certified``
    holds that set when no other k-set can score as high, whatever the
    rounding, and is None otherwise.  Once a strict improvement makes it the
    best row, no later row can replace it: every other set scores lower, and
    the set itself scores the same bits again, because every search passes
    its rows sorted and a row's value does not depend on its batch.  So that
    improvement sets ``optimal``, and ``optimize`` stops the search at the
    end of the iteration.  See ``_certified_optimum`` for the bound.
    """

    def __init__(self, objective: SubsetObjective, k: int, budget: int):
        self.objective = objective
        self.k = k
        self.budget = budget
        self.fitness = np.array(
            [client_fitness(p, objective.weights) for p in objective.profiles]
        )
        self.evaluations = 0
        self.best_row: Optional[np.ndarray] = None
        self.best_value = -math.inf
        self._dists: Optional[np.ndarray] = None
        if objective.coverage_bonus > 0:
            self._dists = np.asarray(objective.class_distributions, dtype=float)
        self.certified: Optional[frozenset] = self._certified_optimum()
        self.optimal = False

    def _certified_optimum(self) -> Optional[frozenset]:
        """The top-k clients, if the margin proves them the unique best k-set.

        With ``coverage_bonus`` 0 a row scores the mean of its members'
        fitness f.  Let M = max |f| and u = 2**-53.  A row's sum of k terms,
        in any order, is within about (k - 1) u k M of its exact sum, so the
        quotient by k is within (k - 1) u M of the exact mean, and rounding
        the quotient adds at most u M: a score lies within about k u M of its
        exact mean, and (k + 1) u M covers the higher-order terms.  Let gap be
        the k-th largest fitness minus the (k+1)-th.  A k-set S other than
        the top-k set T swaps j >= 1 members of T, each at least the k-th
        largest, for j others, each at most the (k+1)-th, so its exact mean
        is at least gap / k below T's.  Both scores move by at most
        (k + 1) u M, so S scores strictly below T when gap / k exceeds
        2 (k + 1) u M, that is gap > k (k + 1) 2**-52 M.  The certificate
        asks for twice that, ``2 k (k + 1) 2**-52 M``.  With k = n there is
        one k-set, and it is certified.  The clients are ranked once, as
        ``fitness.greedy_topk`` ranks them, and the gap and the set are both
        read from that order.

        The gap and the bound are Python floats, which never warn or raise:
        a non-finite fitness gives no certificate, and so does a tie at the
        k boundary (a gap of 0).  So does a fitness beyond ``_SCORE_LIMIT``
        in magnitude, where a search's own arithmetic on scores could
        overflow, which raises ``FloatingPointError`` in a session, in an
        iteration that the stop would skip.
        """
        if self.objective.coverage_bonus > 0:
            return None
        scores = self.fitness.tolist()
        # Written so that NaN fails: every comparison with NaN is false.
        if not all(abs(f) <= _SCORE_LIMIT for f in scores):
            return None
        k = self.k
        order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
        if k < len(scores):
            bound = 2 * k * (k + 1) * 2.0**-52 * max(map(abs, scores))
            if not scores[order[k - 1]] - scores[order[k]] > bound:
                return None
        return frozenset(order[:k])

    def value_rows(self, rows: np.ndarray) -> np.ndarray:
        """Objective value for each (m, k) row of distinct client indices.

        An empty batch returns an empty array and changes nothing.
        """
        rows = np.asarray(rows)
        if self.evaluations + rows.shape[0] > self.budget:
            raise RuntimeError(
                f"evaluation budget exceeded: {self.evaluations} + {rows.shape[0]}"
                f" > {self.budget}"
            )
        k = rows.shape[-1]
        values = np.add.reduce(self.fitness[rows], -1) / k
        if self._dists is not None:
            pooled = np.add.reduce(self._dists[rows], -2) / k
            logs = np.log(pooled, out=np.zeros_like(pooled), where=pooled > 0.0)
            entropy = -np.add.reduce(pooled * logs, -1)
            n_classes = self._dists.shape[1]
            values = values + self.objective.coverage_bonus * entropy / math.log(
                n_classes
            )
        self.evaluations += rows.shape[0]
        if values.size == 0:
            return values
        i = int(values.argmax())
        if values[i] > self.best_value:
            self.best_value = float(values[i])
            self.best_row = np.array(rows[i], copy=True)
            self.optimal = self.certified == frozenset(self.best_row.tolist())
        return values

    def value_positions(self, coords: np.ndarray) -> np.ndarray:
        """Objective value for each (m, N) position, rank-decoded to k clients."""
        return self.value_rows(decode_rows(coords, self.k))
