import math

import numpy as np
import pytest

from swarmfl.fitness import ClientProfile, FitnessWeights, SubsetObjective, subset_objective
from swarmfl.swarm.support import (
    BatchObjective,
    BestTracker,
    Position,
    _levy_sigma,
    decode_position,
    decode_rows,
    fold_into_box,
    keyed_sample,
    levy_sample,
    pheromone_construct,
)


def make_objective(n, seed=0, coverage=0.0):
    rng = np.random.default_rng(seed)
    profiles = []
    dists = []
    for i in range(n):
        acc = rng.uniform(0.5, 1.0)
        profiles.append(
            ClientProfile(
                id=i,
                det_accuracy=acc,
                false_positive_rate=rng.uniform(0.0, 0.2),
                response_time=rng.uniform(0.1, 1.0),
                reported_accuracy=rng.uniform(0.0, 1.0),
                label_flip_rate=1.0 - acc,
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


# --- Position / decoding ------------------------------------------------------


def test_position_validation():
    Position(np.array([0.0, 1.0, 0.5]))
    with pytest.raises(ValueError):
        Position(np.array([[0.1, 0.2]]))
    with pytest.raises(ValueError):
        Position(np.array([]))
    with pytest.raises(ValueError):
        Position(np.array([0.5, 1.01]))
    with pytest.raises(ValueError):
        Position(np.array([-0.01, 0.5]))


def test_decode_hand_cases():
    assert decode_position(Position(np.array([0.9, 0.1, 0.5, 0.5])), 2) == {0, 2}
    assert decode_position(Position(np.array([0.2, 0.7, 0.3])), 1) == {1}
    assert decode_position(Position(np.array([0.2, 0.7, 0.3])), 3) == {0, 1, 2}


def test_decode_ties_to_lower_index():
    assert decode_position(Position(np.array([0.5, 0.5, 0.5, 0.5])), 2) == {0, 1}
    assert decode_position(Position(np.array([0.1, 0.5, 0.5])), 1) == {1}


def test_decode_k_bounds():
    p = Position(np.array([0.2, 0.4]))
    with pytest.raises(ValueError):
        decode_position(p, 0)
    with pytest.raises(ValueError):
        decode_position(p, 3)


def test_decode_rows_batch_matches_scalar():
    rng = np.random.default_rng(5)
    coords = rng.random((12, 8))
    rows = decode_rows(coords, 3)
    assert rows.shape == (12, 3)
    for i in range(12):
        assert set(rows[i]) == decode_position(Position(coords[i]), 3)
        assert list(rows[i]) == sorted(rows[i])


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


# --- pheromone construction ---------------------------------------------------


def test_pheromone_validation():
    rng = np.random.default_rng(1)
    ones = np.ones(3)
    with pytest.raises(ValueError):
        pheromone_construct(np.array([1.0, 0.0, 1.0]), ones, 1, 1, 2, rng)
    with pytest.raises(ValueError):
        pheromone_construct(ones, np.array([1.0, -1.0, 1.0]), 1, 1, 2, rng)
    with pytest.raises(ValueError):
        pheromone_construct(ones, np.ones(4), 1, 1, 2, rng)
    with pytest.raises(ValueError):
        pheromone_construct(ones, ones, 1, 1, 0, rng)
    with pytest.raises(ValueError):
        pheromone_construct(ones, ones, 1, 1, 4, rng)


def test_pheromone_k_equals_n():
    rng = np.random.default_rng(2)
    assert pheromone_construct(np.ones(5), np.ones(5), 1, 2, 5, rng) == set(range(5))


def test_pheromone_respects_weight_ratio():
    rng = np.random.default_rng(3)
    tau = np.array([2.0, 1.0, 1.0])
    eta = np.ones(3)
    hits = sum(pheromone_construct(tau, eta, 1.0, 1.0, 1, rng) == {0} for _ in range(20000))
    assert abs(hits / 20000 - 0.5) < 0.02


def test_pheromone_alpha_beta_exponents():
    rng = np.random.default_rng(4)
    tau = np.array([2.0, 1.0])
    eta = np.array([1.0, 3.0])
    # weights tau^2 * eta^1 = [4, 3] -> P(0) = 4/7
    hits = sum(pheromone_construct(tau, eta, 2.0, 1.0, 1, rng) == {0} for _ in range(20000))
    assert abs(hits / 20000 - 4.0 / 7.0) < 0.02


def test_pheromone_returns_distinct_indices():
    rng = np.random.default_rng(6)
    for _ in range(200):
        got = pheromone_construct(np.array([5.0, 0.1, 1.0, 2.0]), np.ones(4), 1, 1, 3, rng)
        assert len(got) == 3
        assert got <= {0, 1, 2, 3}


# --- fold_into_box --------------------------------------------------------------


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


# --- BatchObjective -------------------------------------------------------------


def test_batch_matches_scalar_objective():
    obj = make_objective(9, seed=10)
    batch = BatchObjective(obj)
    rng = np.random.default_rng(11)
    rows = np.array([sorted(rng.choice(9, size=4, replace=False)) for _ in range(50)])
    values = batch.value_rows(rows)
    for row, value in zip(rows, values):
        assert value == pytest.approx(subset_objective(obj, row), abs=1e-12)


def test_batch_matches_scalar_with_coverage():
    obj = make_objective(7, seed=12, coverage=0.6)
    batch = BatchObjective(obj)
    rng = np.random.default_rng(13)
    rows = np.array([sorted(rng.choice(7, size=3, replace=False)) for _ in range(50)])
    values = batch.value_rows(rows)
    for row, value in zip(rows, values):
        assert value == pytest.approx(subset_objective(obj, row), abs=1e-12)


def test_batch_counts_evaluations():
    batch = BatchObjective(make_objective(6, seed=14))
    assert batch.evaluations == 0
    batch.value_rows(np.array([[0, 1], [2, 3], [4, 5]]))
    assert batch.evaluations == 3
    batch.value_row(np.array([1, 2]))
    assert batch.evaluations == 4


# --- BestTracker -----------------------------------------------------------------


def test_tracker_keeps_strictly_better_only():
    t = BestTracker()
    t.update(np.array([[0, 1], [2, 3]]), np.array([0.5, 0.9]))
    assert list(t.best_row) == [2, 3]
    assert t.best_value == 0.9
    t.update(np.array([[4, 5]]), np.array([0.9]))  # tie: keep earliest
    assert list(t.best_row) == [2, 3]
    t.update(np.array([[4, 5]]), np.array([0.91]))
    assert list(t.best_row) == [4, 5]


def test_tracker_trace_records_running_best():
    t = BestTracker()
    t.update(np.array([[0]]), np.array([0.3]))
    t.close_iteration()
    t.update(np.array([[1]]), np.array([0.2]))
    t.close_iteration()
    t.update(np.array([[2]]), np.array([0.7]))
    t.close_iteration()
    assert t.trace == [0.3, 0.3, 0.7]
