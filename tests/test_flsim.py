import math
import os
import subprocess
import sys
import warnings
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from swarmfl import flsim
from swarmfl.datagen import (
    DatasetSpec,
    LabeledDataset,
    NoiseSpec,
    ParticipationSchedule,
    PartitionSpec,
    corrupt_labels,
    dirichlet_partition,
    gen_dataset,
    participation_at,
    sample_client_profiles,
)
from swarmfl.fitness import ClientProfile, SubsetObjective, subset_objective
from swarmfl.flsim import (
    ClientState,
    GlobalMetrics,
    ModelParams,
    SessionConfig,
    build_clients,
    evaluate_global,
    fed_avg,
    local_train,
    logistic_loss,
    loss_gradient,
    run_round,
    run_session,
    selection_size,
    train_cohort,
)
from swarmfl.swarm import OptimizerParams


def dataset(features, labels):
    return LabeledDataset(
        features=np.asarray(features, dtype=float),
        labels=np.asarray(labels, dtype=int),
    )


def random_dataset(n, d, seed):
    rng = np.random.default_rng(seed)
    return dataset(rng.standard_normal((n, d)), rng.integers(0, 2, n))


FAST_OPT = OptimizerParams("gwo", population=8, iterations=15, seed=0)


# --- model params ----------------------------------------------------------------


def test_model_params_validation():
    p = ModelParams.zeros(3)
    assert p.bias == 0.0 and np.array_equal(p.weights, np.zeros(3))
    with pytest.raises(FloatingPointError):
        ModelParams(weights=np.array([np.nan]), bias=0.0)
    with pytest.raises(FloatingPointError):
        ModelParams(weights=np.array([1.0]), bias=float("inf"))
    with pytest.raises(ValueError):
        ModelParams(weights=np.zeros((2, 2)), bias=0.0)


def test_client_state_validation():
    profile = sample_client_profiles(1, NoiseSpec(0.0), np.random.default_rng(0))[0]
    data = random_dataset(5, 2, 1)
    with pytest.raises(ValueError):
        ClientState(profile=profile, data=dataset(np.zeros((0, 2)), []), class_distribution=np.array([0.5, 0.5]))
    with pytest.raises(ValueError):
        ClientState(profile=profile, data=data, class_distribution=np.array([0.5, 0.6]))


@pytest.mark.parametrize("dist", [[np.nan, 0.5], [0.5, np.nan], [np.nan, np.nan]])
def test_client_state_rejects_nan_distribution(dist):
    profile = sample_client_profiles(1, NoiseSpec(0.0), np.random.default_rng(0))[0]
    with pytest.raises(ValueError):
        ClientState(profile=profile, data=random_dataset(5, 2, 1), class_distribution=np.array(dist))


@pytest.mark.parametrize("dist", [[-0.5, 1.5], [1.5, -0.5]])
def test_client_state_rejects_negative_share(dist):
    profile = sample_client_profiles(1, NoiseSpec(0.0), np.random.default_rng(0))[0]
    with pytest.raises(ValueError, match=">= 0"):
        ClientState(profile=profile, data=random_dataset(5, 2, 1), class_distribution=np.array(dist))


def test_global_metrics_validation():
    with pytest.raises(ValueError):
        GlobalMetrics(accuracy=1.1, recall=0.5, f1=0.5)
    with pytest.raises(ValueError):
        GlobalMetrics(accuracy=0.5, recall=-0.1, f1=0.5)


# --- loss and gradient -------------------------------------------------------------


def test_loss_at_zero_params_is_log_two():
    data = random_dataset(50, 4, 2)
    assert logistic_loss(ModelParams.zeros(4), data) == pytest.approx(np.log(2.0), abs=1e-12)


def test_loss_survives_extreme_logits():
    data = dataset([[1000.0], [-1000.0]], [1, 0])
    loss = logistic_loss(ModelParams(weights=np.array([1.0]), bias=0.0), data)
    assert np.isfinite(loss)
    assert loss == pytest.approx(0.0, abs=1e-12)


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(3)
    h = 1e-5
    for _ in range(100):
        d = int(rng.integers(1, 6))
        n = int(rng.integers(1, 20))
        data = dataset(rng.standard_normal((n, d)), rng.integers(0, 2, n))
        params = ModelParams(weights=rng.standard_normal(d), bias=float(rng.standard_normal()))
        grad_w, grad_b = loss_gradient(params, data)

        for j in range(d):
            bump = np.zeros(d)
            bump[j] = h
            up = logistic_loss(ModelParams(params.weights + bump, params.bias), data)
            down = logistic_loss(ModelParams(params.weights - bump, params.bias), data)
            numeric = (up - down) / (2 * h)
            scale = max(abs(numeric), abs(grad_w[j]), 1e-8)
            assert abs(numeric - grad_w[j]) / scale < 1e-5
        up = logistic_loss(ModelParams(params.weights, params.bias + h), data)
        down = logistic_loss(ModelParams(params.weights, params.bias - h), data)
        numeric = (up - down) / (2 * h)
        scale = max(abs(numeric), abs(grad_b), 1e-8)
        assert abs(numeric - grad_b) / scale < 1e-5


# --- local training -----------------------------------------------------------------


def test_single_sample_sgd_step_by_hand():
    data = dataset([[1.0, 0.0, 0.0]], [1])
    out = local_train(ModelParams.zeros(3), data, lr=0.1, batch_size=1,
                      rng=np.random.default_rng(4))
    # sigma(0) = 0.5, gradient (0.5 - 1) * x, step 0.1
    assert out.weights[0] == pytest.approx(0.05, abs=1e-12)
    assert out.weights[1] == 0.0 and out.weights[2] == 0.0
    assert out.bias == pytest.approx(0.05, abs=1e-12)


def test_tiny_learning_rate_is_a_noop():
    data = random_dataset(30, 3, 5)
    start = ModelParams(weights=np.array([0.3, -0.2, 0.1]), bias=0.05)
    out = local_train(start, data, lr=1e-12, batch_size=8, rng=np.random.default_rng(6))
    assert np.all(np.abs(out.weights - start.weights) < 1e-9)
    assert abs(out.bias - start.bias) < 1e-9


def test_epoch_reduces_loss_on_separable_data():
    rng = np.random.default_rng(7)
    x = np.vstack([rng.normal(-2.0, 0.5, (25, 2)), rng.normal(2.0, 0.5, (25, 2))])
    y = np.array([0] * 25 + [1] * 25)
    data = dataset(x, y)
    start = ModelParams.zeros(2)
    out = local_train(start, data, lr=0.1, batch_size=10, rng=np.random.default_rng(8))
    assert logistic_loss(out, data) <= logistic_loss(start, data)


def test_training_leaves_input_params_alone():
    data = random_dataset(40, 3, 9)
    start = ModelParams(weights=np.array([0.1, 0.2, 0.3]), bias=-0.4)
    snapshot = start.weights.copy()
    local_train(start, data, lr=0.5, batch_size=4, rng=np.random.default_rng(10))
    assert np.array_equal(start.weights, snapshot)
    assert start.bias == -0.4


def test_training_is_deterministic_given_seed():
    data = random_dataset(64, 5, 11)
    a = local_train(ModelParams.zeros(5), data, 0.1, 16, np.random.default_rng(12))
    b = local_train(ModelParams.zeros(5), data, 0.1, 16, np.random.default_rng(12))
    assert np.array_equal(a.weights, b.weights) and a.bias == b.bias


def test_full_batch_epoch_equals_one_gradient_step():
    # One epoch in one batch sums the same residuals as loss_gradient in
    # shuffled row order, so the two agree to rounding, not bit for bit.
    # At scale 400 most logits are past the sigmoid's overflow point.
    for n, d, seed, scale in [(32, 4, 13, 0.1), (7, 2, 17, 1.0), (50, 6, 18, 400.0)]:
        data = random_dataset(n, d, seed)
        start = ModelParams(weights=np.full(d, scale), bias=0.2)
        out = local_train(start, data, lr=0.3, batch_size=64, rng=np.random.default_rng(seed + 1))
        grad_w, grad_b = loss_gradient(start, data)
        np.testing.assert_allclose(out.weights, start.weights - 0.3 * grad_w, rtol=0, atol=1e-12)
        assert out.bias == pytest.approx(start.bias - 0.3 * grad_b, abs=1e-12)


@pytest.mark.parametrize("logit, sigmoid", [(800.0, 1.0), (-800.0, 0.0), (0.0, 0.5)])
def test_sigmoid_is_exact_at_extreme_logits_without_warning(logit, sigmoid):
    data = dataset([[1.0]], [0])
    params = ModelParams(weights=np.array([logit]), bias=0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        grad_w, grad_b = loss_gradient(params, data)
        out = local_train(params, data, lr=1.0, batch_size=1, rng=np.random.default_rng(0))
    assert grad_b == sigmoid and grad_w[0] == sigmoid
    assert out.bias == -sigmoid and out.weights[0] == logit - sigmoid


def test_training_and_gradient_share_the_residual_kernel(monkeypatch):
    calls = []
    kernel = flsim._residual

    def counted(features, weights, bias, labels):
        calls.append(labels.size)
        return kernel(features, weights, bias, labels)

    monkeypatch.setattr(flsim, "_residual", counted)
    data = random_dataset(30, 3, 19)
    local_train(ModelParams.zeros(3), data, 0.1, 8, np.random.default_rng(20))
    assert calls == [8, 8, 8, 6]
    loss_gradient(ModelParams.zeros(3), data)
    assert calls[4:] == [30]


def test_import_leaves_scipy_out():
    probe = "import sys, swarmfl; print('scipy' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          timeout=60, env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


def test_local_train_argument_errors():
    data = random_dataset(10, 2, 15)
    empty = dataset(np.zeros((0, 2)), [])
    rng = np.random.default_rng(16)
    with pytest.raises(ValueError):
        local_train(ModelParams.zeros(2), empty, 0.1, 4, rng)
    with pytest.raises(ValueError):
        local_train(ModelParams.zeros(2), data, 0.0, 4, rng)
    with pytest.raises(ValueError):
        local_train(ModelParams.zeros(2), data, 0.1, 0, rng)


def reference_local_train(params, data, lr, batch_size, rng):
    """The one-client SGD loop that ``train_cohort`` must reproduce bit for bit."""
    w = params.weights.copy()
    b = params.bias
    order = rng.permutation(len(data))
    with np.errstate(over="ignore"):
        for lo in range(0, len(data), batch_size):
            idx = order[lo : lo + batch_size]
            x_b = data.features[idx]
            err = 1.0 / (1.0 + np.exp(-(x_b @ w + b))) - data.labels[idx]
            w -= lr * (x_b.T @ err) / idx.size
            b -= lr * float(err.mean())
    return w, b


COHORT_LENGTHS = {
    "one": [50],
    "three": [50, 50, 50],
    "ten": [200] * 10,
    "unequal": [33, 50, 33, 8],
}


@pytest.mark.parametrize("batch_size", [1, 5, 7, 16, 32, 64])
@pytest.mark.parametrize("cohort", COHORT_LENGTHS)
@pytest.mark.parametrize("start", ["zeros", "nonzero"])
def test_train_cohort_equals_training_each_client_alone(cohort, batch_size, start):
    d = 10
    datasets = [
        random_dataset(n, d, seed=100 + i) for i, n in enumerate(COHORT_LENGTHS[cohort])
    ]
    if start == "zeros":
        params = ModelParams.zeros(d)
    else:
        draw = np.random.default_rng(99)
        params = ModelParams(weights=draw.standard_normal(d), bias=float(draw.standard_normal()))

    rng, mirror = np.random.default_rng(7), np.random.default_rng(7)
    trained = train_cohort(params, datasets, 0.1, batch_size, rng)
    assert len(trained) == len(datasets)
    for out, data in zip(trained, datasets):
        w, b = reference_local_train(params, data, 0.1, batch_size, mirror)
        assert np.array_equal(out.weights, w)
        assert out.bias == b
    assert rng.bit_generator.state == mirror.bit_generator.state
    single = local_train(params, datasets[0], 0.1, batch_size, np.random.default_rng(7))
    assert np.array_equal(single.weights, trained[0].weights) and single.bias == trained[0].bias


def test_train_cohort_rejects_an_empty_member():
    empty = dataset(np.zeros((0, 3)), [])
    with pytest.raises(ValueError, match="cannot train on an empty dataset"):
        train_cohort(ModelParams.zeros(3), [random_dataset(5, 3, 17), empty], 0.1, 4,
                     np.random.default_rng(18))


def test_one_permuted_block_equals_sequential_permutations():
    # A round draws its k shuffles with one rng.permuted call; a numpy
    # release that changes this breaks every session's bits.
    for k in range(1, 13):
        for m in range(1, 301):
            rng, mirror = np.random.default_rng([k, m]), np.random.default_rng([k, m])
            block = rng.permuted(np.broadcast_to(np.arange(m), (k, m)), axis=1)
            assert np.array_equal(block, [mirror.permutation(m) for _ in range(k)])
            assert rng.bit_generator.state == mirror.bit_generator.state


def test_local_train_non_finite_result_raises():
    data = dataset([[1e10]], [0])
    with pytest.raises(FloatingPointError):
        local_train(ModelParams.zeros(1), data, 1e308, 1, np.random.default_rng(9))


def test_run_round_training_errors():
    config, clients, test = small_pool(3, 30)
    config = replace(config, select_fraction=1.0)
    start = ModelParams.zeros(4)

    def unchecked(**changes):
        bad = replace(config)
        for name, value in changes.items():
            object.__setattr__(bad, name, value)
        return bad

    with pytest.raises(ValueError, match="empty"):
        empty = SimpleNamespace(profile=clients[0].profile, data=dataset(np.zeros((0, 4)), []),
                                class_distribution=clients[0].class_distribution)
        run_round(start, [*clients[:2], empty], config, test, np.random.default_rng(31))
    with pytest.raises(ValueError, match="lr"):
        run_round(start, clients, unchecked(lr=0.0), test, np.random.default_rng(31))
    with pytest.raises(ValueError, match="batch_size"):
        run_round(start, clients, unchecked(batch_size=0), test, np.random.default_rng(31))
    with pytest.raises(FloatingPointError):
        run_round(start, clients, unchecked(lr=1e308), test, np.random.default_rng(31))


# --- federated averaging --------------------------------------------------------------


def test_fed_avg_hand_case():
    a = ModelParams(weights=np.array([0.0, 0.0]), bias=0.0)
    b = ModelParams(weights=np.array([1.0, 1.0]), bias=1.0)
    avg = fed_avg([(a, 1), (b, 3)])
    assert np.all(np.abs(avg.weights - 0.75) < 1e-12)
    assert abs(avg.bias - 0.75) < 1e-12


def test_fed_avg_of_identical_updates_is_identity():
    p = ModelParams(weights=np.array([0.4, -0.2]), bias=0.7)
    avg = fed_avg([(p, 5), (p, 1), (p, 9)])
    assert np.allclose(avg.weights, p.weights, atol=1e-15)
    assert avg.bias == pytest.approx(p.bias, abs=1e-15)


def test_fed_avg_singleton_and_permutation():
    rng = np.random.default_rng(17)
    updates = [
        (ModelParams(weights=rng.standard_normal(3), bias=float(rng.standard_normal())), int(c))
        for c in rng.integers(1, 50, 4)
    ]
    single = fed_avg(updates[:1])
    assert np.allclose(single.weights, updates[0][0].weights, atol=1e-12)
    assert single.bias == pytest.approx(updates[0][0].bias, abs=1e-12)
    forward = fed_avg(updates)
    backward = fed_avg(updates[::-1])
    assert np.allclose(forward.weights, backward.weights, atol=1e-12)
    assert forward.bias == pytest.approx(backward.bias, abs=1e-12)


def test_fed_avg_errors():
    p = ModelParams(weights=np.array([1.0]), bias=0.0)
    q = ModelParams(weights=np.array([1.0, 2.0]), bias=0.0)
    with pytest.raises(ValueError):
        fed_avg([])
    with pytest.raises(ValueError):
        fed_avg([(p, 0)])
    with pytest.raises(ValueError):
        fed_avg([(p, 1), (q, 1)])


# --- evaluation ---------------------------------------------------------------------


def identity_model():
    return ModelParams(weights=np.array([1.0]), bias=0.0)


def test_evaluate_perfect_predictions():
    data = dataset([[1.0], [1.0], [-1.0], [-1.0]], [1, 1, 0, 0])
    m = evaluate_global(identity_model(), data)
    assert (m.accuracy, m.recall, m.f1) == (1.0, 1.0, 1.0)


def test_evaluate_confusion_matrix_hand_case():
    # logits +-1 via the identity model: TP=8, FP=2, FN=1, TN=9
    features = [[1.0]] * 8 + [[1.0]] * 2 + [[-1.0]] * 1 + [[-1.0]] * 9
    labels = [1] * 8 + [0] * 2 + [1] * 1 + [0] * 9
    m = evaluate_global(identity_model(), dataset(features, labels))
    assert m.accuracy == pytest.approx(0.85, abs=1e-12)
    assert m.recall == pytest.approx(8.0 / 9.0, abs=1e-9)
    precision = 8.0 / 10.0
    recall = 8.0 / 9.0
    assert m.f1 == pytest.approx(2 * precision * recall / (precision + recall), abs=1e-9)
    assert m.f1 == pytest.approx(0.842105, abs=1e-6)


def test_evaluate_all_negative_predictor():
    model = ModelParams(weights=np.array([0.0]), bias=-5.0)
    m = evaluate_global(model, dataset([[0.0], [0.0]], [1, 0]))
    assert m.recall == 0.0
    assert m.f1 == 0.0
    assert m.accuracy == 0.5


def test_evaluate_degenerate_conventions():
    no_positives = dataset([[-1.0], [-1.0]], [0, 0])
    m = evaluate_global(identity_model(), no_positives)
    assert m.recall == 1.0
    with pytest.raises(ValueError):
        evaluate_global(identity_model(), dataset(np.zeros((0, 1)), []))


def test_evaluate_matches_brute_force_counter():
    rng = np.random.default_rng(18)
    for _ in range(50):
        n = int(rng.integers(1, 40))
        features = rng.standard_normal((n, 3))
        labels = rng.integers(0, 2, n)
        params = ModelParams(weights=rng.standard_normal(3), bias=float(rng.standard_normal()))
        m = evaluate_global(params, dataset(features, labels))

        tp = fp = fn = tn = 0
        for i in range(n):
            pred = float(features[i] @ params.weights + params.bias) >= 0.0
            if pred and labels[i] == 1:
                tp += 1
            elif pred and labels[i] == 0:
                fp += 1
            elif not pred and labels[i] == 1:
                fn += 1
            else:
                tn += 1
        assert m.accuracy == pytest.approx((tp + tn) / n, abs=1e-12)
        expected_recall = tp / (tp + fn) if tp + fn else 1.0
        assert m.recall == pytest.approx(expected_recall, abs=1e-12)
        precision = tp / (tp + fp) if tp + fp else 1.0
        expected_f1 = (
            0.0
            if precision + expected_recall == 0
            else 2 * precision * expected_recall / (precision + expected_recall)
        )
        assert m.f1 == pytest.approx(expected_f1, abs=1e-12)


# --- selection size ---------------------------------------------------------------------


def test_selection_size_rules():
    assert selection_size(0.5, 5) == 3
    assert selection_size(0.4, 25) == 10
    assert selection_size(0.1, 5) == 2  # floor of 2
    assert selection_size(1.0, 7) == 7
    assert selection_size(0.9, 2) == 2  # capped at the pool
    assert selection_size(0.5, 2) == 2
    with pytest.raises(ValueError):
        selection_size(0.0, 5)
    with pytest.raises(ValueError):
        selection_size(1.5, 5)


# --- rounds and sessions ---------------------------------------------------------------


def small_pool(n, seed):
    config = SessionConfig(
        schedule=ParticipationSchedule("fixed", n, n, 1),
        dataset=DatasetSpec(n_train_per_client=50, n_test=400, n_features=4),
        optimizer=FAST_OPT,
    )
    clients, test = build_clients(config, np.random.default_rng(seed))
    return config, clients, test


def test_run_round_selection_count_and_value():
    config, clients, test = small_pool(5, 19)
    new_params, record = run_round(
        ModelParams.zeros(4), clients, replace(config, select_fraction=0.5), test,
        np.random.default_rng(20),
    )
    assert record.available == 5
    assert len(record.selected) == 3
    assert record.selected <= set(range(5))
    objective = SubsetObjective(profiles=[c.profile for c in clients])
    assert record.selection_value == pytest.approx(
        subset_objective(objective, record.selected), abs=1e-12
    )
    assert isinstance(new_params, ModelParams)


def test_run_round_full_fraction_is_plain_fedavg():
    config, clients, test = small_pool(4, 21)
    new_params, record = run_round(
        ModelParams.zeros(4), clients, replace(config, select_fraction=1.0), test,
        np.random.default_rng(22),
    )
    assert record.selected == set(range(4))

    mirror = np.random.default_rng(22)
    mirror.integers(0, 2**64, dtype=np.uint64)  # the round's selection seed
    updates = []
    for client in clients:
        trained = local_train(ModelParams.zeros(4), client.data, 0.1, 32, mirror)
        updates.append((trained, len(client.data)))
    expected = fed_avg(updates)
    assert np.array_equal(new_params.weights, expected.weights)
    assert new_params.bias == expected.bias
    assert record.metrics == evaluate_global(expected, test)


def test_run_round_rejects_empty_pool():
    config, _, test = small_pool(3, 23)
    with pytest.raises(ValueError):
        run_round(ModelParams.zeros(4), [], config, test, np.random.default_rng(24))


def test_run_round_trains_the_cohort_in_ascending_pool_index():
    # Clients 7 and 8 are the clear top 2, and frozenset({7, 8}) iterates 8
    # first.  The round reads the sample count from the pool, not config.dataset.
    config, clients, test = small_pool(12, 28)
    best = ClientProfile(det_accuracy=0.9, false_positive_rate=0.0, response_time=0.1,
                         reported_accuracy=1.0)
    for i in (7, 8):
        clients[i] = replace(clients[i], profile=best)
    config = replace(config, select_fraction=2 / 12, dataset=DatasetSpec(),
                     optimizer=OptimizerParams("aco", population=8, iterations=15))
    new_params, record = run_round(
        ModelParams.zeros(4), clients, config, test, np.random.default_rng(29)
    )
    assert list(record.selected) == [8, 7]
    assert record.epoch == 0

    mirror = np.random.default_rng(29)
    mirror.integers(0, 2**64, dtype=np.uint64)  # the round's selection seed
    expected = fed_avg(
        [(local_train(ModelParams.zeros(4), clients[i].data, 0.1, 32, mirror), 50) for i in (7, 8)]
    )
    assert np.array_equal(new_params.weights, expected.weights)
    assert new_params.bias == expected.bias


def test_run_round_rejects_unequal_data_sizes():
    config, clients, test = small_pool(3, 25)
    short = SimpleNamespace(profile=clients[0].profile, data=random_dataset(20, 4, 26),
                            class_distribution=clients[0].class_distribution)
    rng = np.random.default_rng(27)
    before = rng.bit_generator.state
    with pytest.raises(ValueError, match="equal data sizes"):
        run_round(ModelParams.zeros(4), [*clients, short], config, test, rng)
    assert rng.bit_generator.state == before


def predraw_session(config, seed):
    """A session's stream drawn without selecting or training.

    ``build_clients``, then per epoch one uint64 (the round's optimizer seed)
    and one ``rng.permuted`` call over a ``(k, m)`` block.  Returns the seeds
    and the generator state after ``build_clients`` and after every round.
    """
    rng = np.random.default_rng(seed)
    build_clients(config, rng)
    m = config.dataset.n_train_per_client
    seeds, states = [], [rng.bit_generator.state]
    for epoch in range(config.schedule.epochs):
        k = selection_size(config.select_fraction, participation_at(config.schedule, epoch))
        seeds.append(int(rng.integers(0, 2**64, dtype=np.uint64)))
        rng.permuted(np.broadcast_to(np.arange(m), (k, m)), axis=1)
        states.append(rng.bit_generator.state)
    return seeds, states


@pytest.mark.parametrize("algorithm", ["aco", "gwo", "bee", "iwd"])
@pytest.mark.parametrize("coverage_bonus", [0.0, 0.5])
@pytest.mark.parametrize("partition", ["iid", "dirichlet"])
@pytest.mark.parametrize("schedule", [("fixed", 6, 6), ("increasing", 3, 8), ("decreasing", 8, 3)],
                         ids=["fixed", "increasing", "decreasing"])
def test_session_stream_does_not_depend_on_selection(
    monkeypatch, schedule, partition, coverage_bonus, algorithm
):
    config = SessionConfig(
        schedule=ParticipationSchedule(*schedule, 4),
        dataset=DatasetSpec(n_train_per_client=20, n_test=50, n_features=3),
        partition=PartitionSpec(partition),
        optimizer=OptimizerParams(algorithm, population=8, iterations=8),
        coverage_bonus=coverage_bonus,
    )
    seeds, states = predraw_session(config, seed=35)

    real_optimize = flsim.optimize
    round_seeds = []

    def recording_optimize(problem, params):
        round_seeds.append(params.seed)
        return real_optimize(problem, params)

    monkeypatch.setattr(flsim, "optimize", recording_optimize)
    rng = np.random.default_rng(35)
    clients, test = build_clients(config, rng)
    assert rng.bit_generator.state == states[0]
    params = ModelParams.zeros(3)
    for epoch in range(config.schedule.epochs):
        pool = clients[: participation_at(config.schedule, epoch)]
        params, _ = run_round(params, pool, config, test, rng, epoch=epoch)
        assert round_seeds[epoch] == seeds[epoch]
        assert rng.bit_generator.state == states[epoch + 1]


def test_build_clients_covers_largest_pool():
    config = SessionConfig(
        schedule=ParticipationSchedule("decreasing", 12, 4, 5),
        dataset=DatasetSpec(n_train_per_client=20, n_test=100, n_features=3),
        optimizer=FAST_OPT,
    )
    clients, test = build_clients(config, np.random.default_rng(25))
    assert len(clients) == 12
    assert len(test) == 100
    for c in clients:
        assert len(c.data) == 20
        assert np.array_equal(c.class_distribution, [0.5, 0.5])


def test_build_clients_dirichlet_uses_drawn_proportions():
    config = SessionConfig(
        schedule=ParticipationSchedule("fixed", 6, 6, 1),
        dataset=DatasetSpec(n_train_per_client=20, n_test=100, n_features=3),
        partition=PartitionSpec(mode="dirichlet", alpha=0.3),
        optimizer=FAST_OPT,
    )
    clients, _ = build_clients(config, np.random.default_rng(26))
    dists = np.array([c.class_distribution for c in clients])
    assert np.allclose(dists.sum(axis=1), 1.0, atol=1e-9)
    assert np.std(dists[:, 0]) > 0.0  # not the flat iid split


def reference_build_clients(config, rng):
    """The per-client draws that ``build_clients`` must reproduce bit for bit."""
    n = max(config.schedule.start, config.schedule.end)
    profiles = sample_client_profiles(n, config.noise, rng)
    if config.partition.mode == "dirichlet":
        mixes = dirichlet_partition(config.partition.alpha, n, config.dataset.n_classes, rng)
    else:
        mixes = [np.array([0.5, 0.5])] * n
    datasets = []
    for profile, mix in zip(profiles, mixes):
        data = gen_dataset(config.dataset, config.dataset.n_train_per_client, mix, rng)
        datasets.append(corrupt_labels(data, profile.label_flip_rate, rng))
    test = gen_dataset(config.dataset, config.dataset.n_test, (0.5, 0.5), rng)
    return profiles, mixes, datasets, test


POOLS = {
    "iid": SessionConfig(
        schedule=ParticipationSchedule("fixed", 25, 25, 1), noise=NoiseSpec(0.25)
    ),
    "dirichlet": SessionConfig(
        schedule=ParticipationSchedule("fixed", 15, 15, 1),
        dataset=DatasetSpec(n_train_per_client=37, n_test=101, n_features=3, class_separation=20),
        partition=PartitionSpec(mode="dirichlet", alpha=0.3),
    ),
    "decreasing": SessionConfig(
        schedule=ParticipationSchedule("decreasing", 12, 4, 5),
        dataset=DatasetSpec(n_train_per_client=1, n_test=1, n_features=1),
        noise=NoiseSpec(1.0),
    ),
}


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("pool", POOLS)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_build_clients_equals_drawing_each_client_alone(pool, seed):
    config = POOLS[pool]
    rng, mirror = np.random.default_rng(seed), np.random.default_rng(seed)
    clients, test = build_clients(config, rng)
    profiles, mixes, datasets, expected_test = reference_build_clients(config, mirror)
    assert len(clients) == len(datasets) == max(config.schedule.start, config.schedule.end)
    for client, profile, mix, data in zip(clients, profiles, mixes, datasets):
        assert client.profile == profile
        assert same_bits(client.class_distribution, mix)
        assert same_bits(client.data.features, data.features)
        assert same_bits(client.data.labels, data.labels)
    assert same_bits(test.features, expected_test.features)
    assert same_bits(test.labels, expected_test.labels)
    assert rng.bit_generator.state == mirror.bit_generator.state


def test_run_session_fixed_schedule():
    config = SessionConfig(
        schedule=ParticipationSchedule("fixed", 5, 5, 10),
        dataset=DatasetSpec(n_train_per_client=30, n_test=200, n_features=3),
        optimizer=FAST_OPT,
    )
    records = run_session(config, seed=27)
    assert len(records) == 10
    assert [r.epoch for r in records] == list(range(10))
    for r in records:
        assert r.available == 5
        assert len(r.selected) == selection_size(config.select_fraction, 5)
        assert r.selected <= set(range(5))


def test_run_session_increasing_schedule_endpoints():
    config = SessionConfig(
        schedule=ParticipationSchedule("increasing", 5, 25, 20),
        dataset=DatasetSpec(n_train_per_client=20, n_test=100, n_features=3),
        optimizer=FAST_OPT,
    )
    records = run_session(config, seed=28)
    assert records[0].available == 5
    assert records[-1].available == 25
    counts = [r.available for r in records]
    assert all(b >= a for a, b in zip(counts, counts[1:]))
    for r in records:
        assert r.selected <= set(range(r.available))


def test_run_session_is_deterministic():
    config = SessionConfig(
        schedule=ParticipationSchedule("fixed", 6, 6, 4),
        dataset=DatasetSpec(n_train_per_client=25, n_test=150, n_features=3),
        optimizer=FAST_OPT,
    )
    assert run_session(config, seed=29) == run_session(config, seed=29)


@pytest.mark.parametrize("lr, separation", [(1e306, 20.0), (1e307, 2.0), (5e307, 20.0)])
def test_run_session_overflow_raises_without_warning(lr, separation):
    # Each of these warned (overflow or invalid value) before it stopped or scored.
    # SessionConfig now rejects an lr above 1e6, so it is set past the check.
    config = SessionConfig(
        schedule=ParticipationSchedule("fixed", 4, 4, 3),
        dataset=DatasetSpec(n_train_per_client=20, n_test=50, n_features=3,
                            class_separation=separation),
        optimizer=FAST_OPT,
        batch_size=1,
    )
    object.__setattr__(config, "lr", lr)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FloatingPointError):
            run_session(config, seed=5)


def test_session_config_validation():
    sched = ParticipationSchedule("fixed", 5, 5, 2)
    with pytest.raises(ValueError):
        SessionConfig(schedule=sched, select_fraction=0.0)
    with pytest.raises(ValueError):
        SessionConfig(schedule=sched, coverage_bonus=-1.0)
    with pytest.raises(ValueError):
        SessionConfig(schedule=sched, lr=0.0)
    with pytest.raises(ValueError):
        SessionConfig(schedule=sched, batch_size=0)


@pytest.mark.parametrize("field", ["select_fraction", "coverage_bonus", "lr"])
def test_session_config_rejects_nan(field):
    sched = ParticipationSchedule("fixed", 5, 5, 2)
    with pytest.raises(ValueError):
        SessionConfig(schedule=sched, **{field: np.nan})


@pytest.mark.parametrize("field", ["coverage_bonus", "lr"])
def test_session_config_takes_at_most_1e6(field):
    sched = ParticipationSchedule("fixed", 5, 5, 2)
    assert getattr(SessionConfig(schedule=sched, **{field: 1e6}), field) == 1e6
    with pytest.raises(ValueError, match=rf"^{field} must be <= 1e6, got 1000000.0000000001$"):
        SessionConfig(schedule=sched, **{field: math.nextafter(1e6, math.inf)})


@pytest.mark.parametrize("field", ["coverage_bonus", "lr"])
def test_session_config_rejects_infinity(field):
    sched = ParticipationSchedule("fixed", 5, 5, 2)
    with pytest.raises(ValueError, match="finite"):
        SessionConfig(schedule=sched, **{field: np.inf})


def test_training_rejects_nan_lr():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        local_train(ModelParams.zeros(2), random_dataset(5, 2, 1), np.nan, 4, rng)
