import math
from dataclasses import replace

import numpy as np
import pytest

from swarmfl.fitness import (
    ClientProfile,
    FitnessWeights,
    SubsetObjective,
    greedy_topk,
    subset_objective,
)
from swarmfl.swarm.support import (
    BatchObjective,
    _levy_sigma,
    bounce,
    decode_rows,
    fold_into_box,
    gram_sq_distances,
    keyed_sample,
    levy_sample,
    roulette,
)
from swarmfl.swarm import OptimizerParams, SelectionProblem, bee, fish, gwo, optimize


def make_objective(n, seed=0, coverage=0.0):
    rng = np.random.default_rng(seed)
    profiles = []
    dists = []
    for _ in range(n):
        acc = rng.uniform(0.5, 1.0)
        profiles.append(
            ClientProfile(
                det_accuracy=acc,
                false_positive_rate=rng.uniform(0.0, 0.2),
                response_time=rng.uniform(0.1, 1.0),
                reported_accuracy=rng.uniform(0.0, 1.0),
            )
        )
        p = rng.uniform(0.05, 0.95)
        dists.append((p, 1.0 - p))
    return SubsetObjective(
        profiles=profiles,
        weights=FitnessWeights(1.0, 1.0, 0.1),
        coverage_bonus=coverage,
        class_distributions=dists if coverage > 0 else None,
    )


def scored_objective(scores):
    """Objective whose client fitness is exactly ``scores[i]``."""
    profiles = [
        ClientProfile(
            det_accuracy=0.8,
            false_positive_rate=0.0,
            response_time=1.0,
            reported_accuracy=score,
        )
        for score in scores
    ]
    return SubsetObjective(profiles=profiles, weights=FitnessWeights(1.0, 0.0, 0.0))


# --- decoding -------------------------------------------------------------------


def test_decode_hand_cases():
    assert decode_rows(np.array([[0.9, 0.1, 0.5, 0.5]]), 2).tolist() == [[0, 2]]
    three = np.array([[0.2, 0.7, 0.3]])
    assert decode_rows(three, 1).tolist() == [[1]]
    assert decode_rows(three, 3).tolist() == [[0, 1, 2]]


def test_decode_ties_to_lower_index():
    assert decode_rows(np.array([[0.5, 0.5, 0.5, 0.5]]), 2).tolist() == [[0, 1]]
    assert decode_rows(np.array([[0.1, 0.5, 0.5]]), 1).tolist() == [[1]]


def test_decode_rows_batch_matches_scalar():
    rng = np.random.default_rng(5)
    coords = rng.random((40, 8))
    coords[20:] = np.round(coords[20:], 1)  # plenty of ties
    for k in (1, 3, 8):
        rows = decode_rows(coords, k)
        assert rows.shape == (40, k)
        for c, row in zip(coords, rows):
            expected = sorted(sorted(range(8), key=lambda i: (-c[i], i))[:k])
            assert row.tolist() == expected


# --- levy flights -------------------------------------------------------------


def test_levy_sigma_matches_frozen_value():
    # (gamma(1+b) sin(pi b/2) / (gamma((1+b)/2) b 2^((b-1)/2)))^(1/b) at b=1.5,
    # evaluated separately at high precision
    assert _levy_sigma(1.5) == pytest.approx(0.6965745025576968, abs=1e-12)


def test_levy_beta_domain():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        levy_sample(1.0, rng)
    with pytest.raises(ValueError):
        levy_sample(2.5, rng)
    levy_sample(2.0, rng)  # boundary included


def test_levy_draw_order_u_then_v():
    class Script:
        def __init__(self, blocks):
            self.blocks = list(blocks)

        def normal(self, loc, scale, size=None):
            return self.blocks.pop(0)

    u = np.array([0.0, 1.0])
    v = np.array([1.0, 4.0])
    out = levy_sample(1.5, Script([u, v]), size=2)
    assert out[0] == 0.0
    assert out[1] == pytest.approx(1.0 / 4.0 ** (1.0 / 1.5), abs=1e-12)


def test_levy_tail_is_heavy():
    rng = np.random.default_rng(314)
    s = levy_sample(1.5, rng, size=1_000_000)
    assert float(np.mean(np.abs(s) > 10.0)) > 0.005
    assert float(np.mean(np.abs(s) > 100.0)) > 1e-4
    normal = np.random.default_rng(314).normal(0.0, 1.0, 1_000_000)
    assert float(np.mean(np.abs(normal) > 10.0)) == 0.0


def test_roulette_is_searchsorted_on_any_batch_shape():
    # Each pick is searchsorted(cum, u * total, side="right"), clipped to the
    # last index: a zero draw passes over leading zero weights, and a row of
    # zero weights (a glowworm with no brighter neighbor) picks its last index.
    rng = np.random.default_rng(71)
    weights = rng.choice([0.0, 0.5, 1.0, 2.0], (2, 3, 5))
    weights[0, 0] = 0.0
    weights[1, :, :3] = [0.0, 0.0, 1.0]
    cum = np.add.accumulate(weights, -1)
    u = rng.random((2, 3))
    u[1] = 0.0
    expected = [
        [min(np.searchsorted(row, x * row[-1], side="right"), 4) for row, x in zip(rows, xs)]
        for rows, xs in zip(cum, u)
    ]
    assert roulette(cum, u).tolist() == expected
    assert expected[0][0] == 4 and expected[1] == [2, 2, 2]
    # One row of weights and a vector of draws, as bee's onlookers use it.
    assert roulette(cum[1, 0], u[0]).tolist() == [
        np.searchsorted(cum[1, 0], x * cum[1, 0, -1], side="right") for x in u[0]
    ]


# --- keyed sampling ---------------------------------------------------------------


def test_keyed_sample_first_two_picks_match_sequential_roulette():
    weights = np.array([4.0, 1.0, 2.0, 3.0])
    draws = 20000
    rng = np.random.default_rng(11)
    picks = keyed_sample(weights, rng.standard_exponential((draws, 4)), 2)
    total = weights.sum()
    for i in range(4):
        for j in range(4):
            if i == j:
                continue
            exact = weights[i] / total * weights[j] / (total - weights[i])
            seen = np.mean((picks[:, 0] == i) & (picks[:, 1] == j))
            se = math.sqrt(exact * (1.0 - exact) / draws)
            assert abs(seen - exact) < 5.0 * se, (i, j, seen, exact)


def test_keyed_sample_extreme_weights_stay_finite(recwarn):
    weights = np.logspace(-6.0, 6.0, 13)
    rng = np.random.default_rng(12)
    races = rng.standard_exponential((5000, weights.size))
    races[0] = 0.0
    races[1] = 1e-300
    races[2] = 50.0
    with np.errstate(all="raise"):
        keys = races / weights
        order = keyed_sample(weights, races, weights.size)
    assert np.all(np.isfinite(keys))
    assert np.array_equal(np.sort(order, axis=1), np.tile(np.arange(13), (5000, 1)))
    # the 1e6 weight holds 90% of the mass, so it is picked first 90% of the time
    assert abs(np.mean(order[3:, 0] == 12) - 1e6 / weights.sum()) < 0.02
    assert len(recwarn) == 0


def test_keyed_sample_k_equals_n_returns_every_index():
    rng = np.random.default_rng(13)
    weights = rng.uniform(0.1, 5.0, 7)
    one = keyed_sample(weights, rng.standard_exponential(7), 7)
    assert sorted(one.tolist()) == list(range(7))
    batch = keyed_sample(weights, rng.standard_exponential((50, 7)), 7)
    assert np.array_equal(np.sort(batch, axis=1), np.tile(np.arange(7), (50, 1)))


# --- fold_into_box --------------------------------------------------------------


def test_bounce_flips_only_the_components_that_leave_the_box():
    x = np.array([[0.1, 0.5, 0.9, 0.0, 0.4]])
    v = np.array([[-0.3, 0.2, 0.3, 0.0, 0.9]])
    new_x, new_v = bounce(x, v, 0.5)
    np.testing.assert_allclose(new_x, [[0.2, 0.7, 0.8, 0.0, 0.9]], atol=1e-15)
    np.testing.assert_array_equal(new_v, [[0.3, 0.2, -0.3, 0.0, 0.5]])
    np.testing.assert_array_equal(x, [[0.1, 0.5, 0.9, 0.0, 0.4]])
    np.testing.assert_array_equal(v, [[-0.3, 0.2, 0.3, 0.0, 0.9]])


def reference_bounce(x, v, vmax):
    """The clamp, the step and the bounce as separate steps, with a range mask."""
    v = np.clip(v, -vmax, vmax)
    raw = x + v
    out = (raw < 0.0) | (raw > 1.0)
    return fold_into_box(raw), np.where(out, -v, v)


def bounce_inputs(rng):
    """(x, v, vmax): random steps, and steps that end on a wall, at the clamp or past +/-2."""
    yield rng.random((20, 25)), rng.uniform(-1.0, 1.0, (20, 25)), 0.5
    yield rng.random((3, 50)), rng.normal(0.0, 2.0, (3, 50)), 3.0
    edge = np.array([0.0, -0.0, 0.25, 0.5, 0.75, 1.0])
    x, v = (a.ravel() for a in np.meshgrid(edge, np.concatenate([edge - 1.0, edge])))
    for vmax in (0.25, 0.5, 1.0):
        yield x[None, :], v[None, :], vmax
    # Steps of exactly +/-vmax, and beyond it, from points near the walls.
    x = np.array([[0.0, 1.0, 0.5, 0.5, 0.1, 0.9, -0.0, 1.0, 0.3]])
    v = np.array([[0.5, -0.5, 0.5, -0.5, -0.5, 0.5, -0.0, 0.0, 7.0]])
    yield x, v, 0.5
    yield x, -v, 0.5
    # Steps past +/-2, which fold onto the 0 wall.
    yield np.array([[0.5, 0.5, 0.0, 1.0]]), np.array([[2.5, -2.5, -2.0, 1.0]]), 3.0


def test_bounce_equals_clip_step_and_mask_bit_for_bit():
    rng = np.random.default_rng(10)
    for x, v, vmax in bounce_inputs(rng):
        x_before, v_before = x.tobytes(), v.tobytes()
        new_x, new_v = bounce(x, v, vmax)
        ref_x, ref_v = reference_bounce(x, v, vmax)
        assert new_x.tobytes() == ref_x.tobytes()
        assert new_v.tobytes() == ref_v.tobytes()
        assert x.tobytes() == x_before and v.tobytes() == v_before
        assert not np.shares_memory(new_x, x) and not np.shares_memory(new_v, v)


def test_fold_hand_case():
    out = fold_into_box(np.array([-0.25, 0.5, 1.25]))
    assert np.allclose(out, [0.25, 0.5, 0.75], atol=1e-15)


def test_fold_is_identity_inside_box():
    rng = np.random.default_rng(7)
    x = rng.random(100)
    assert np.array_equal(fold_into_box(x), x)


def test_fold_always_lands_in_box():
    rng = np.random.default_rng(8)
    x = rng.uniform(-50, 50, 10000)
    out = fold_into_box(x)
    assert np.all(out >= 0.0) and np.all(out <= 1.0)


def reference_fold(coords):
    """The three-step fold: mirror at 0, mirror at 1, clip what is still out."""
    folded = np.where(coords < 0.0, -coords, coords)
    folded = np.where(folded > 1.0, 2.0 - folded, folded)
    return np.clip(folded, 0.0, 1.0)


def test_fold_matches_three_step_reference():
    rng = np.random.default_rng(9)
    x = np.concatenate([rng.uniform(-3.0, 4.0, 10000), [-2.0, -1.0, 0.0, 1.0, 2.0, 3.0]])
    np.testing.assert_array_equal(fold_into_box(x), reference_fold(x))
    for value in x[:50]:  # numpy scalars
        assert fold_into_box(value) == reference_fold(value)


def test_bee_neighbor_is_the_fold_bit_for_bit():
    # bee moves one coordinate at a time on plain floats; each step must land
    # on fold_into_box's bits, the sign of zero included.  np.abs takes -0.0
    # to 0.0, where flipping only steps below 0 would keep it: the wall cases
    # give -0.0 steps (own -0.0, other 0.0, phi 1.0), and steps of exactly
    # 1, 2 and beyond 2.
    rng = np.random.default_rng(10)
    walls = np.meshgrid([-0.0, 0.0, 0.5, 1.0], [-0.0, 0.0, 1.0, 2.0], [-1.0, 0.0, 0.5, 1.0])
    draws = [rng.uniform(-3.0, 4.0, 5000) for _ in range(2)] + [rng.uniform(-1.0, 1.0, 5000)]
    own, other, phi = (np.concatenate([draw, wall.ravel()]) for draw, wall in zip(draws, walls))
    raw = own + phi * (own - other)
    assert any(math.copysign(1.0, step) < 0 for step in raw[raw == 0.0].tolist())
    assert raw.max() > 2.0 and (raw == 2.0).any() and (raw == 1.0).any()
    got = [bee.neighbor(*move) for move in zip(own.tolist(), other.tolist(), phi.tolist())]
    assert np.array(got).view(np.uint64).tolist() == fold_into_box(raw).view(np.uint64).tolist()


# --- BatchObjective -------------------------------------------------------------


def point_sets(rng, n):
    """Random points, box corners, coincident rows and half-integer coordinates."""
    m = 12
    coincident = rng.random((m, n))
    coincident[m // 2 :] = coincident[: m - m // 2]
    return [
        rng.random((m, n)),
        rng.integers(0, 2, (m, n)).astype(float),
        coincident,
        rng.integers(0, 3, (m, n)) / 2.0,
    ]


@pytest.mark.parametrize("n", [1, 2, 10, 50, 200])
def test_gram_estimate_bound_is_sound(n):
    rng = np.random.default_rng(40 + n)
    for points in point_sets(rng, n):
        spots = points[rng.permutation(len(points))]
        spots[::3] = rng.random((len(spots[::3]), n))
        sq, margin = gram_sq_distances(points, spots)
        d = points[:, None, :] - spots[None, :, :]
        exact_sq = np.add.reduce(d * d, -1)
        assert np.all(np.abs(sq - exact_sq) <= margin)

        # Ranges on every exact pair norm, one ulp either side of it, and fish's
        # own: fish's far test and glowworm's near test each decide a pair only
        # on the side its exact norm is on.
        norm = np.linalg.norm(d, axis=-1)
        ranges = np.concatenate(
            [[fish.VISUAL], norm.ravel(), np.nextafter(norm, 0.0).ravel(),
             np.nextafter(norm, np.inf).ravel()]
        )
        for r in ranges:
            far = fish._farther(points, spots, r)
            assert not np.any(far & (norm < r))
            near = sq - r * r < -margin
            assert not np.any(near & (norm >= r))


@pytest.mark.parametrize("n", [1, 2, 10, 50, 200])
def test_gram_self_form_is_the_two_argument_form(n):
    # Without spots the norms are taken once for both sides; the estimates
    # and the margin must be the bits of the same points passed twice.
    rng = np.random.default_rng(60 + n)
    for points in point_sets(rng, n):
        sq, margin = gram_sq_distances(points)
        twice, twice_margin = gram_sq_distances(points, points)
        assert sq.tobytes() == twice.tobytes()
        assert margin == twice_margin == 4.0 * n * (n + 2) * np.finfo(float).eps


def test_batch_matches_scalar_objective():
    obj = make_objective(9, seed=10)
    batch = BatchObjective(obj, k=4, budget=50)
    rng = np.random.default_rng(11)
    rows = np.array([sorted(rng.choice(9, size=4, replace=False)) for _ in range(50)])
    values = batch.value_rows(rows)
    for row, value in zip(rows, values):
        assert value == pytest.approx(subset_objective(obj, row), abs=1e-12)


def test_batch_matches_scalar_with_coverage():
    obj = make_objective(7, seed=12, coverage=0.6)
    batch = BatchObjective(obj, k=3, budget=50)
    rng = np.random.default_rng(13)
    rows = np.array([sorted(rng.choice(7, size=3, replace=False)) for _ in range(50)])
    values = batch.value_rows(rows)
    for row, value in zip(rows, values):
        assert value == pytest.approx(subset_objective(obj, row), abs=1e-12)


@pytest.mark.parametrize("k", [4, 7, 8, 10, 20])
def test_batch_matches_scalar_objective_within_the_summation_bound(k):
    # numpy sums eight or more terms pairwise, subset_objective in sequence.
    for seed in range(5):
        obj = make_objective(25, seed=100 + seed)
        batch = BatchObjective(obj, k=k, budget=200)
        rng = np.random.default_rng(seed)
        rows = np.array([sorted(rng.choice(25, size=k, replace=False)) for _ in range(200)])
        for row, value in zip(rows, batch.value_rows(rows)):
            bound = k * 2.0**-52 * np.abs(batch.fitness[row]).mean()
            assert abs(value - subset_objective(obj, row)) <= bound


def test_batch_counts_evaluations():
    batch = BatchObjective(make_objective(6, seed=14), k=2, budget=10)
    assert batch.evaluations == 0
    batch.value_rows(np.array([[0, 1], [2, 3], [4, 5]]))
    assert batch.evaluations == 3
    value = batch.value_positions(np.array([[0.1, 0.9, 0.8, 0.2, 0.3, 0.0]]))
    assert batch.evaluations == 4
    assert value[0] == batch.value_rows(np.array([[1, 2]]))[0]


def test_batch_rejects_calls_past_the_budget():
    batch = BatchObjective(make_objective(6, seed=15), k=2, budget=4)
    batch.value_rows(np.array([[0, 1], [2, 3], [4, 5]]))
    with pytest.raises(RuntimeError, match="budget"):
        batch.value_rows(np.array([[0, 2], [1, 3]]))
    assert batch.evaluations == 3
    batch.value_positions(np.array([[0.9, 0.8, 0.0, 0.0, 0.0, 0.0]]))  # exactly at budget
    assert batch.evaluations == 4
    with pytest.raises(RuntimeError, match="budget"):
        batch.value_rows(np.array([[0, 1]]))


def test_batch_of_no_rows_changes_nothing():
    batch = BatchObjective(make_objective(6, seed=16, coverage=0.6), k=2, budget=2)
    assert batch.value_rows(np.empty((0, 2), dtype=int)).shape == (0,)
    assert batch.evaluations == 0
    assert batch.best_row is None and batch.best_value == -math.inf
    batch.value_rows(np.array([[0, 1], [2, 3]]))
    best_row, best_value = batch.best_row.copy(), batch.best_value
    assert batch.value_positions(np.empty((0, 6))).shape == (0,)  # even at the budget
    assert batch.evaluations == 2
    assert list(batch.best_row) == list(best_row) and batch.best_value == best_value


@pytest.mark.parametrize("coverage", [0.0, 0.6])
@pytest.mark.parametrize("n, k", [(9, 4), (12, 1), (50, 20)])
def test_batch_value_of_a_row_ignores_its_batch(n, k, coverage):
    # bee treats a move whose candidate decodes to its source's row as unable
    # to win, which holds only if a row scores the same bits in any batch.
    obj = make_objective(n, seed=17, coverage=coverage)
    rng = np.random.default_rng(18)
    pool = np.sort(rng.permuted(np.tile(np.arange(n), (40, 1)), axis=1)[:, :k], axis=1)
    batch = BatchObjective(obj, k=k, budget=10**6)
    alone = np.array([batch.value_rows(row[None, :])[0] for row in pool])
    for size in (2, 3, 7, 8, 9, 16, 17, 33, 1000):
        picks = rng.integers(len(pool), size=size)
        for shift in range(min(size, 33)):
            order = np.roll(picks, shift)
            values = batch.value_rows(pool[order])
            assert values.view(np.uint64).tolist() == alone[order].view(np.uint64).tolist()


def test_tracker_keeps_strictly_better_only():
    batch = BatchObjective(scored_objective([0.5, 0.9, 0.9, 0.91]), k=1, budget=10)
    batch.value_rows(np.array([[0], [1]]))
    assert list(batch.best_row) == [1]
    assert batch.best_value == 0.9
    batch.value_rows(np.array([[2]]))  # tie: keep earliest
    assert list(batch.best_row) == [1]
    batch.value_rows(np.array([[3]]))
    assert list(batch.best_row) == [3]
    assert batch.best_value == 0.91


def test_optimal_is_set_once_the_certified_set_is_the_best_row():
    batch = BatchObjective(scored_objective([0.3, 0.9, 0.2, 0.7]), k=2, budget=10)
    assert batch.certified == {1, 3}
    assert not batch.optimal
    batch.value_rows(np.array([[0, 1], [1, 2]]))
    assert not batch.optimal
    batch.value_rows(np.array([[0, 2], [1, 3]]))
    assert batch.optimal
    batch.value_rows(np.array([[0, 3], [1, 3]]))  # lower, then the same set again
    assert batch.optimal
    assert list(batch.best_row) == [1, 3]
    # A tie at the k boundary gives no certificate, so no best row is optimal.
    tied = BatchObjective(scored_objective([0.9, 0.5, 0.1, 0.5]), k=2, budget=10)
    tied.value_rows(np.array([[0, 1], [0, 3]]))
    assert tied.certified is None
    assert not tied.optimal


# --- certified optimum ----------------------------------------------------------


def test_no_certificate_with_a_coverage_bonus():
    bonus = make_objective(6, seed=19, coverage=0.6)
    assert BatchObjective(bonus, k=2, budget=1).certified is None
    separable = make_objective(6, seed=19)
    assert BatchObjective(separable, k=2, budget=1).certified == greedy_topk(separable, 2)


def test_no_certificate_with_a_tie_at_the_k_boundary():
    objective = scored_objective([0.9, 0.5, 0.1, 0.5])
    assert BatchObjective(objective, k=2, budget=1).certified is None
    # Ties away from the boundary do not matter.
    assert BatchObjective(objective, k=1, budget=1).certified == {0}
    assert BatchObjective(objective, k=3, budget=1).certified == {0, 1, 3}


def test_no_certificate_with_a_gap_inside_the_bound():
    # With k = 1 the bound is 4 * 2**-52 * 0.7, about 5.6 ulps of 0.7.
    top = 0.7
    inside = scored_objective([top - 4 * math.ulp(top), top])
    outside = scored_objective([top - 8 * math.ulp(top), top])
    assert BatchObjective(inside, k=1, budget=1).certified is None
    assert BatchObjective(outside, k=1, budget=1).certified == {1}


def test_certificate_bound_grows_with_k_squared():
    # At k = 10 the bound is 2 * 10 * 11 = 220 units of 2**-52 * M, with M = 1.
    # A gap of 100 units lies inside it; 2 * 11 / 10 units would not hold it.
    def tenth_to_eleventh(gap):
        return scored_objective([1.0] * 10 + [1.0 - gap * 2.0**-52, 0.5])

    assert BatchObjective(tenth_to_eleventh(100), k=10, budget=1).certified is None
    assert BatchObjective(tenth_to_eleventh(220), k=10, budget=1).certified is None
    assert BatchObjective(tenth_to_eleventh(221), k=10, budget=1).certified == set(range(10))


@pytest.mark.parametrize("gap_exponent, certified", [(-50, None), (-49, {0})])
def test_certificate_needs_a_gap_strictly_above_the_bound(gap_exponent, certified):
    # With k = 1 and fitness at most 1 the bound is 2 * 1 * 2 * 2**-52 = 2**-50.
    profiles = [
        ClientProfile(
            det_accuracy=0.8, false_positive_rate=fpr, response_time=1.0, reported_accuracy=1.0
        )
        for fpr in (0.0, 2.0**gap_exponent)
    ]
    objective = SubsetObjective(profiles=profiles, weights=FitnessWeights(1.0, 1.0, 0.0))
    batch = BatchObjective(objective, k=1, budget=1)
    assert batch.fitness.tolist() == [1.0, 1.0 - 2.0**gap_exponent]
    assert batch.certified == certified


@pytest.mark.parametrize("w3", [0.1, 0.0], ids=["inf", "nan"])
def test_no_certificate_with_non_finite_fitness(w3):
    # A response time near zero overflows 1 / response_time; times w3 = 0 it is NaN.
    profiles = [
        ClientProfile(
            det_accuracy=0.8, false_positive_rate=0.0, response_time=t, reported_accuracy=a
        )
        for t, a in [(1.0, 0.2), (1e-310, 0.5), (1.0, 0.9)]
    ]
    objective = SubsetObjective(profiles=profiles, weights=FitnessWeights(1.0, 0.0, w3))
    with np.errstate(all="raise"):
        batch = BatchObjective(objective, k=1, budget=1)
    assert not math.isfinite(batch.fitness[1])
    assert batch.certified is None


def test_no_certificate_where_a_search_could_overflow():
    # Without the limit, aco stopped here before its trail levels grew far
    # enough to overflow tau * eta**2, where the full search raises.
    # Fitness weights stop at 1e6, but a response time near zero still gives
    # fitness near 1e153: 0.1 / (t / 1e154) for t in [0.1, 1].
    profiles = [
        replace(p, response_time=p.response_time / 1e154)
        for p in make_objective(25, seed=20).profiles
    ]
    huge = SubsetObjective(profiles=profiles, weights=FitnessWeights(1.0, 1.0, 0.1))
    assert BatchObjective(huge, k=10, budget=1).certified is None
    with np.errstate(over="raise"), pytest.raises(FloatingPointError):
        optimize(SelectionProblem(25, 10, huge), OptimizerParams("aco", seed=0))


def test_k_equal_to_n_is_certified():
    batch = BatchObjective(scored_objective([0.5, 0.5, 0.5]), k=3, budget=1)
    assert batch.certified == {0, 1, 2}


def test_optimize_stops_at_the_first_iteration_end_after_the_certified_set_is_scored(
    monkeypatch,
):
    steps = []

    def run(n, k, population, iterations, objective, rng):
        objective.value_rows(np.array([[0, 1], [1, 2]]))
        steps.append(0)
        yield
        objective.value_rows(np.array([[0, 2], [1, 3]]))  # the certified optimum
        objective.value_rows(np.array([[0, 3]]))  # the iteration goes on after it
        steps.append(1)
        yield
        steps.append("resumed")

    monkeypatch.setattr(gwo, "run", run)
    problem = SelectionProblem(4, 2, scored_objective([0.3, 0.9, 0.2, 0.7]))
    result = optimize(problem, OptimizerParams("gwo", population=2, iterations=5))
    assert steps == [0, 1]
    assert result.best_subset == {1, 3}
    assert result.trace == (0.6,) + (result.best_value,) * 4
    assert result.evaluations == 5


def test_optimize_pulls_an_uncertified_search_every_iteration(monkeypatch):
    # A tie at the k boundary: {0, 1} and {0, 3} are both optimal, and neither is certified.
    rows = np.array([[1, 2], [0, 1], [0, 3], [2, 3]])
    pulls = []

    def run(n, k, population, iterations, objective, rng):
        for t in range(iterations):
            objective.value_rows(rows[t : t + 1])
            yield
            pulls.append(t)

    monkeypatch.setattr(gwo, "run", run)
    problem = SelectionProblem(4, 2, scored_objective([0.9, 0.5, 0.1, 0.5]))
    result = optimize(problem, OptimizerParams("gwo", population=2, iterations=4))
    assert pulls == [0, 1, 2, 3]
    assert result.best_subset == {0, 1}
    assert result.trace == (0.3, 0.7, 0.7, 0.7)
    assert result.evaluations == 4


def test_certificate_is_none_or_the_greedy_top_k():
    # Odd trials draw fitness from a coarse grid, so ties fall both at and
    # away from the k boundary; there the certificate fails exactly at a tie.
    rng = np.random.default_rng(23)
    outcomes = set()
    for trial in range(200):
        n = int(rng.integers(1, 13))
        scores = rng.choice([0.2, 0.4, 0.6, 0.8], size=n).tolist()
        objective = scored_objective(scores) if trial % 2 else make_objective(n, seed=trial)
        ranked = sorted(scores, reverse=True)
        for k in range(1, n + 1):
            certified = BatchObjective(objective, k=k, budget=1).certified
            assert certified is None or certified == greedy_topk(objective, k)
            if trial % 2:
                assert (certified is None) == (k < n and ranked[k - 1] == ranked[k])
            outcomes.add(certified is None)
    assert outcomes == {True, False}
