import itertools
import math

import numpy as np
import pytest

from swarmfl.fitness import (
    ClientProfile,
    FitnessWeights,
    SubsetObjective,
    client_fitness,
    greedy_topk,
    subset_objective,
)


def profile(acc=0.8, fpr=0.1, rt=0.5, reported=None):
    return ClientProfile(
        det_accuracy=acc,
        false_positive_rate=fpr,
        response_time=rt,
        reported_accuracy=acc if reported is None else reported,
    )


def random_profile(rng):
    acc = rng.uniform(0.5, 1.0)
    return ClientProfile(
        det_accuracy=acc,
        false_positive_rate=rng.uniform(0.0, 0.2),
        response_time=rng.uniform(0.1, 1.0),
        reported_accuracy=rng.uniform(0.0, 1.0),
    )


# --- client_fitness ---------------------------------------------------------


def test_fitness_accuracy_only():
    p = profile(acc=0.75, fpr=0.9, rt=0.2, reported=0.75)
    assert client_fitness(p, FitnessWeights(1.0, 0.0, 0.0)) == 0.75


def test_fitness_hand_case_one():
    p = profile(acc=0.9, fpr=0.1, rt=0.5)
    got = client_fitness(p, FitnessWeights(1.0, 1.0, 0.1))
    assert got == 1.0 * 0.9 - 1.0 * 0.1 + 0.1 * (1.0 / 0.5)
    assert abs(got - 1.0) < 1e-12


def test_fitness_hand_case_two():
    p = profile(acc=0.5, fpr=0.2, rt=0.1)
    got = client_fitness(p, FitnessWeights(1.0, 1.0, 0.1))
    assert got == 1.0 * 0.5 - 1.0 * 0.2 + 0.1 * (1.0 / 0.1)
    assert abs(got - 1.3) < 1e-12


def test_fitness_uses_reported_not_true_accuracy():
    p = profile(acc=0.9, fpr=0.0, rt=1.0, reported=0.2)
    got = client_fitness(p, FitnessWeights(1.0, 0.0, 0.0))
    assert got == 0.2


def test_fitness_monotone_in_each_term():
    rng = np.random.default_rng(101)
    for _ in range(300):
        w = FitnessWeights(
            rng.uniform(0.1, 2.0), rng.uniform(0.1, 2.0), rng.uniform(0.1, 2.0)
        )
        base = random_profile(rng)
        lo, hi = sorted(rng.uniform(0.0, 1.0, 2))
        if hi > lo:
            a = profile(acc=base.det_accuracy, fpr=base.false_positive_rate,
                        rt=base.response_time, reported=lo)
            b = profile(acc=base.det_accuracy, fpr=base.false_positive_rate,
                        rt=base.response_time, reported=hi)
            assert client_fitness(a, w) < client_fitness(b, w)
        lo, hi = sorted(rng.uniform(0.0, 1.0, 2))
        if hi > lo:
            a = profile(acc=base.det_accuracy, fpr=lo, rt=base.response_time,
                        reported=base.reported_accuracy)
            b = profile(acc=base.det_accuracy, fpr=hi, rt=base.response_time,
                        reported=base.reported_accuracy)
            assert client_fitness(a, w) > client_fitness(b, w)
        lo, hi = sorted(rng.uniform(0.05, 1.0, 2))
        if hi > lo:
            a = profile(acc=base.det_accuracy, fpr=base.false_positive_rate,
                        rt=lo, reported=base.reported_accuracy)
            b = profile(acc=base.det_accuracy, fpr=base.false_positive_rate,
                        rt=hi, reported=base.reported_accuracy)
            assert client_fitness(a, w) > client_fitness(b, w)


# --- validation --------------------------------------------------------------


def test_profile_rejects_bad_fields():
    with pytest.raises(ValueError):
        profile(acc=1.2)
    with pytest.raises(ValueError):
        profile(fpr=-0.1)
    with pytest.raises(ValueError):
        profile(rt=0.0)
    with pytest.raises(ValueError):
        profile(reported=1.5)


@pytest.mark.parametrize(
    "field",
    [
        "det_accuracy",
        "false_positive_rate",
        "response_time",
        "reported_accuracy",
    ],
)
def test_profile_rejects_nan(field):
    # Every comparison with NaN is false, so each check must fail on false.
    fields = dict(
        det_accuracy=0.8,
        false_positive_rate=0.1,
        response_time=0.5,
        reported_accuracy=0.8,
    )
    ClientProfile(**fields)
    fields[field] = math.nan
    with pytest.raises(ValueError):
        ClientProfile(**fields)


@pytest.mark.parametrize("index", [0, 1, 2])
def test_weights_reject_nan(index):
    weights = [1.0, 1.0, 0.1]
    weights[index] = math.nan
    with pytest.raises(ValueError):
        FitnessWeights(*weights)


@pytest.mark.parametrize("index", [0, 1, 2])
@pytest.mark.parametrize("value", [math.inf, -math.inf])
def test_weights_reject_infinity(index, value):
    weights = [1.0, 1.0, 0.1]
    weights[index] = value
    with pytest.raises(ValueError, match="finite"):
        FitnessWeights(*weights)


def test_weights_validation():
    with pytest.raises(ValueError):
        FitnessWeights(-1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        FitnessWeights(0.0, 0.0, 0.0)
    assert FitnessWeights().w3 == 0.1


def test_objective_validation():
    with pytest.raises(ValueError):
        SubsetObjective(profiles=[])
    with pytest.raises(ValueError):
        SubsetObjective(profiles=[profile()], coverage_bonus=-0.5)
    with pytest.raises(ValueError):
        SubsetObjective(profiles=[profile()], coverage_bonus=1.0)
    with pytest.raises(ValueError):
        SubsetObjective(profiles=[profile(), profile()], coverage_bonus=1.0,
                        class_distributions=[(0.5, 0.5)])
    with pytest.raises(ValueError):
        SubsetObjective(profiles=[profile()], coverage_bonus=1.0,
                        class_distributions=[(0.7, 0.7)])
    with pytest.raises(ValueError):
        SubsetObjective(profiles=[profile()], coverage_bonus=1.0,
                        class_distributions=[(-0.1, 1.1)])


@pytest.mark.parametrize(
    "dists, message",
    [
        ([(0.5, 0.5), (1.0,)], r"class_distributions\[1\] has 1 classes, expected 2"),
        ([(1.0,), (0.5, 0.5)], "at least 2 classes"),
        ([(0.5, 0.5), (0.2, 0.3, 0.5)], r"class_distributions\[1\] has 3 classes"),
        ([(1.0,), (1.0,)], "at least 2 classes"),
        ([(), ()], "at least 2 classes"),
    ],
    ids=["shorter", "shorter-first", "longer", "one-class", "no-class"],
)
def test_objective_rejects_mixes_the_coverage_term_cannot_score(dists, message):
    # Unequal lengths broke the pooled sum and one class divided by ln(1) = 0,
    # in subset_objective and in optimize alike, after construction.
    with pytest.raises(ValueError, match=message):
        SubsetObjective(
            profiles=[profile(), profile()], coverage_bonus=0.5, class_distributions=dists
        )
    # Without the bonus the mixes are never read.
    SubsetObjective(profiles=[profile(), profile()], class_distributions=dists)


@pytest.mark.parametrize(
    "bonus, dists",
    [
        (math.nan, None),
        (1.0, [(math.nan, 0.5)]),
        (1.0, [(0.5, math.nan)]),
        (1.0, [(math.nan, math.nan)]),
    ],
    ids=["bonus", "first-share", "second-share", "both-shares"],
)
def test_objective_rejects_nan(bonus, dists):
    with pytest.raises(ValueError):
        SubsetObjective(profiles=[profile()], coverage_bonus=bonus, class_distributions=dists)


@pytest.mark.parametrize("dists", [None, [(0.5, 0.5)]], ids=["no-mixes", "with-mixes"])
def test_objective_rejects_infinite_bonus(dists):
    with pytest.raises(ValueError, match="finite"):
        SubsetObjective(profiles=[profile()], coverage_bonus=math.inf, class_distributions=dists)


# --- subset_objective --------------------------------------------------------


def test_subset_mean_of_two():
    a = profile(acc=0.9, fpr=0.1, rt=0.5)  # fitness 1.0
    b = profile(acc=0.5, fpr=0.2, rt=0.1)  # fitness 1.3
    obj = SubsetObjective(profiles=[a, b], weights=FitnessWeights(1.0, 1.0, 0.1))
    assert abs(subset_objective(obj, {0, 1}) - 1.15) < 1e-12


def test_subset_singleton_equals_client_fitness():
    rng = np.random.default_rng(7)
    profiles = [random_profile(rng) for _ in range(5)]
    obj = SubsetObjective(profiles=profiles)
    for i in range(5):
        assert subset_objective(obj, {i}) == pytest.approx(
            client_fitness(profiles[i], obj.weights), abs=1e-12
        )


def test_subset_coverage_bonus_balanced_pair():
    a, b = profile(), profile()
    obj0 = SubsetObjective(profiles=[a, b])
    obj1 = SubsetObjective(
        profiles=[a, b],
        coverage_bonus=1.0,
        class_distributions=[(1.0, 0.0), (0.0, 1.0)],
    )
    base = subset_objective(obj0, {0, 1})
    assert subset_objective(obj1, {0, 1}) == pytest.approx(base + 1.0, abs=1e-12)


def test_subset_coverage_bonus_with_a_class_share_of_zero():
    # Both members hold only class 0, so the pooled share of class 1 is 0,
    # which adds 0 to the entropy rather than taking log(0).
    a, b = profile(), profile(acc=0.6)
    obj = SubsetObjective(
        profiles=[a, b],
        coverage_bonus=0.5,
        class_distributions=[(1.0, 0.0), (1.0, 0.0)],
    )
    assert subset_objective(obj, {0, 1}) == subset_objective(SubsetObjective([a, b]), {0, 1})


def test_subset_permutation_and_nonmember_independence():
    rng = np.random.default_rng(8)
    profiles = [random_profile(rng) for _ in range(6)]
    obj = SubsetObjective(profiles=profiles)
    assert subset_objective(obj, [3, 1, 4]) == subset_objective(obj, [4, 3, 1])
    swapped = profiles.copy()
    swapped[0], swapped[5] = random_profile(rng), random_profile(rng)
    obj2 = SubsetObjective(profiles=swapped)
    assert subset_objective(obj, [3, 1, 4]) == subset_objective(obj2, [3, 1, 4])


def test_subset_errors():
    obj = SubsetObjective(profiles=[profile(), profile()])
    with pytest.raises(ValueError):
        subset_objective(obj, [])
    with pytest.raises(ValueError):
        subset_objective(obj, [0, 0])
    with pytest.raises(ValueError):
        subset_objective(obj, [2])
    with pytest.raises(ValueError):
        subset_objective(obj, [-1])


# --- greedy_topk -------------------------------------------------------------


def scored_objective(scores):
    profiles = [
        profile(acc=0.8, fpr=0.0, rt=1e9, reported=s) for s in scores
    ]
    return SubsetObjective(profiles=profiles, weights=FitnessWeights(1.0, 0.0, 0.0))


def test_greedy_hand_case():
    # fitness values 1.0, 0.8, 1.3 under the default weights
    profiles = [
        profile(acc=0.9, fpr=0.1, rt=0.5),
        profile(acc=0.8, fpr=0.1, rt=1.0),
        profile(acc=0.5, fpr=0.2, rt=0.1),
    ]
    obj = SubsetObjective(profiles=profiles, weights=FitnessWeights(1.0, 1.0, 0.1))
    assert greedy_topk(obj, 2) == {0, 2}
    assert greedy_topk(obj, 3) == {0, 1, 2}


def test_greedy_ties_take_lower_index():
    assert greedy_topk(scored_objective([0.5, 0.5, 0.5]), 1) == {0}
    assert greedy_topk(scored_objective([0.5, 0.5, 0.5]), 2) == {0, 1}


def test_greedy_matches_exhaustive_search():
    rng = np.random.default_rng(11)
    for trial in range(20):
        n = int(rng.integers(4, 13))
        profiles = [random_profile(rng) for _ in range(n)]
        obj = SubsetObjective(profiles=profiles)
        for k in range(1, min(4, n) + 1):
            best = max(
                itertools.combinations(range(n), k),
                key=lambda s: subset_objective(obj, s),
            )
            assert greedy_topk(obj, k) == set(best)


def test_greedy_invariant_under_weight_scaling():
    rng = np.random.default_rng(12)
    profiles = [random_profile(rng) for _ in range(10)]
    w = FitnessWeights(1.0, 1.0, 0.1)
    scaled = FitnessWeights(3.0, 3.0, 0.3)
    a = greedy_topk(SubsetObjective(profiles=profiles, weights=w), 4)
    b = greedy_topk(SubsetObjective(profiles=profiles, weights=scaled), 4)
    assert a == b


def test_greedy_errors():
    obj = scored_objective([0.1, 0.2])
    with pytest.raises(ValueError):
        greedy_topk(obj, 0)
    with pytest.raises(ValueError):
        greedy_topk(obj, 3)
    rich = SubsetObjective(
        profiles=[profile(), profile()],
        coverage_bonus=0.5,
        class_distributions=[(0.5, 0.5), (0.5, 0.5)],
    )
    with pytest.raises(ValueError):
        greedy_topk(rich, 1)
