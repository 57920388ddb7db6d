"""Federated training loop: per-round selection, local SGD, FedAvg, metrics.

Each round, a swarm optimizer picks a fixed-size subset of the available
clients by their composite fitness; the selected clients run one epoch of
minibatch SGD on a shared logistic model starting from the current global
parameters; updates are sample-count-weighted averaged; the result is scored
on a held-out balanced test set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .datagen import (
    DatasetSpec,
    LabeledDataset,
    NoiseSpec,
    ParticipationSchedule,
    PartitionSpec,
    dirichlet_partition,
    gen_client_datasets,
    gen_dataset,
    participation_at,
    sample_client_profiles,
)
from .fitness import _SUM_TOL, ClientProfile, FitnessWeights, SubsetObjective
from .swarm import OptimizerParams, SelectionProblem, optimize

__all__ = [
    "ModelParams",
    "ClientState",
    "GlobalMetrics",
    "RoundRecord",
    "SessionConfig",
    "logistic_loss",
    "loss_gradient",
    "local_train",
    "fed_avg",
    "evaluate_global",
    "run_round",
    "build_clients",
    "run_session",
]


@dataclass(frozen=True)
class ModelParams:
    """Flat logistic-regression parameters: one weight per feature plus bias."""

    weights: np.ndarray
    bias: float

    def __post_init__(self) -> None:
        weights = np.asarray(self.weights, dtype=float)
        if weights.ndim != 1:
            raise ValueError("weights must be a vector")
        if not np.isfinite(weights).all() or not math.isfinite(self.bias):
            raise FloatingPointError("model parameters must be finite")
        object.__setattr__(self, "weights", weights)

    @staticmethod
    def zeros(n_features: int) -> "ModelParams":
        return ModelParams(weights=np.zeros(n_features), bias=0.0)


@dataclass(frozen=True)
class ClientState:
    """One client's profile, its (already corrupted) local data, and class mix."""

    profile: ClientProfile
    data: LabeledDataset
    class_distribution: np.ndarray

    def __post_init__(self) -> None:
        if len(self.data) == 0:
            raise ValueError("client data must be nonempty")
        dist = np.asarray(self.class_distribution, dtype=float)
        if not (dist >= 0).all():
            raise ValueError("class_distribution entries must be >= 0")
        if not abs(dist.sum() - 1.0) <= _SUM_TOL:
            raise ValueError("class_distribution must sum to 1")
        object.__setattr__(self, "class_distribution", dist)


@dataclass(frozen=True)
class GlobalMetrics:
    accuracy: float
    recall: float
    f1: float

    def __post_init__(self) -> None:
        for name in ("accuracy", "recall", "f1"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} out of [0,1]: {v}")


@dataclass(frozen=True)
class RoundRecord:
    epoch: int
    available: int
    selected: frozenset
    selection_value: float
    metrics: GlobalMetrics


def _logits(params: ModelParams, features: np.ndarray) -> np.ndarray:
    return features @ params.weights + params.bias


def logistic_loss(params: ModelParams, data: LabeledDataset) -> float:
    """Mean cross-entropy of the sigmoid model, computed in log-space."""
    z = _logits(params, data.features)
    y = data.labels
    per_sample = y * np.logaddexp(0.0, -z) + (1 - y) * np.logaddexp(0.0, z)
    return float(per_sample.mean())


def _residual(features, weights, bias, labels) -> np.ndarray:
    """Sigmoid of the logits minus the labels: the logistic loss's gradient factor.

    The one place the sigmoid is computed, for training and for
    ``loss_gradient`` alike.  Below a logit of about -709, ``exp`` overflows
    to inf and the sigmoid is exactly 0; callers hold one
    ``np.errstate(over="ignore")`` around their calls, so that overflow raises
    no warning without paying for a context on every minibatch.  Computes
    ``1 / (1 + exp(-(features @ weights + bias))) - labels`` in place in
    the logits' array, one operation at a time in that order.
    """
    z = features @ weights
    z += bias
    np.negative(z, out=z)
    np.exp(z, out=z)
    z += 1.0
    np.divide(1.0, z, out=z)
    z -= labels
    return z


def loss_gradient(params: ModelParams, data: LabeledDataset):
    """Analytic gradient of ``logistic_loss`` wrt weights and bias."""
    with np.errstate(over="ignore"):
        err = _residual(data.features, params.weights, params.bias, data.labels)
    grad_w = data.features.T @ err / len(data)
    grad_b = float(err.mean())
    return grad_w, grad_b


def local_train(
    params: ModelParams,
    data: LabeledDataset,
    lr: float,
    batch_size: int,
    rng: np.random.Generator,
) -> ModelParams:
    """One epoch of minibatch SGD on the logistic loss, as a one-member stack."""
    row = _train_stack(params, [data], rng.permutation(len(data))[None], lr, batch_size)[0]
    return ModelParams(weights=row[:-1], bias=float(row[-1]))


def _train_stack(params: ModelParams, datasets, orders, lr, batch_size) -> np.ndarray:
    """One epoch of SGD per dataset; one row per dataset, its weights then its bias.

    ``orders`` is the drawn ``(k, m)`` shuffle block: row ``i`` shuffles
    ``datasets[i]``, and every dataset holds ``m`` samples.  The members
    train together as one ``(k, m, d)`` stack, gathered with one index, with
    the weights as ``(k, d, 1)`` and the biases as ``(k, 1, 1)``.  Each
    member's step keeps the one-client association (``_residual``, then
    ``x_b.T @ err`` scaled by ``lr`` and divided by the batch size, and the
    bias stepped by ``lr`` times the residual's mean), so stacking only saves
    the per-client call overhead.  Non-finite results come back as they are,
    for the caller to check.
    """
    k, m = orders.shape
    if m == 0:
        raise ValueError("cannot train on an empty dataset")
    if not lr > 0:
        raise ValueError("lr must be > 0")
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")

    # Gather each member's shuffled rows once; a minibatch is then a slice.
    flat = (orders + m * np.arange(k)[:, None]).ravel()
    x = np.concatenate([data.features for data in datasets]).take(flat, axis=0)
    y = np.concatenate([data.labels for data in datasets]).take(flat).astype(float)
    x, y = x.reshape(k, m, -1), y.reshape(k, m, 1)
    x_t = x.transpose(0, 2, 1)
    w = np.repeat(params.weights[None, :, None], k, axis=0)
    b = np.full((k, 1, 1), params.bias)
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, m, batch_size):
            hi = lo + batch_size
            err = _residual(x[:, lo:hi], w, b, y[:, lo:hi])
            w -= lr * (x_t[:, :, lo:hi] @ err) / err.shape[1]
            b -= lr * (np.add.reduce(err, axis=1, keepdims=True) / err.shape[1])
    return np.concatenate([w[:, :, 0], b[:, 0]], axis=1)


def fed_avg(updates) -> ModelParams:
    """Sample-count-weighted element-wise mean of parameter sets."""
    if not updates:
        raise ValueError("fed_avg needs at least one update")
    if any(count < 1 for _, count in updates):
        raise ValueError("sample counts must be >= 1")
    if len({params.weights.size for params, _ in updates}) > 1:
        raise ValueError("parameter vectors must have equal length")
    stack = np.array([np.append(params.weights, params.bias) for params, _ in updates])
    return _average(stack, [count for _, count in updates])


def _average(stack: np.ndarray, counts) -> ModelParams:
    """FedAvg of a ``(B, d + 1)`` stack of weights with the bias last.

    Row 0 of ``terms`` is zeros and row ``j + 1`` is ``counts[j] * stack[j]``;
    ``np.add.accumulate`` adds them row by row, so every element is summed
    as ``0 + c0*w0 + c1*w1 + ...`` in member order, as a loop over the
    members would.  A reduction may group a long column pairwise instead,
    and starting from the first member would keep a sum of negative zeros
    at ``-0.0``.
    """
    terms = np.zeros((len(counts) + 1, stack.shape[1]))
    np.multiply(stack, np.asarray(counts, dtype=float)[:, None], out=terms[1:])
    mean = np.add.accumulate(terms, axis=0)[-1] / sum(counts)
    return ModelParams(weights=mean[:-1], bias=float(mean[-1]))


def evaluate_global(params: ModelParams, test: LabeledDataset) -> GlobalMetrics:
    """Accuracy, recall, and F1 of thresholded predictions on the test set.

    Predicts intrusion when the predicted probability reaches 0.5, i.e. when
    the logit is nonnegative.  Degenerate cases follow the usual conventions:
    recall is 1 when there are no positives, precision is 1 when nothing is
    predicted positive, and F1 is 0 when precision and recall are both 0.
    """
    if len(test) == 0:
        raise ValueError("test set must be nonempty")
    predicted = _logits(params, test.features) >= 0.0
    actual = test.labels == 1
    tp = int(np.count_nonzero(predicted & actual))
    fp = int(np.count_nonzero(predicted)) - tp
    fn = int(np.count_nonzero(actual)) - tp
    tn = len(test) - tp - fp - fn

    accuracy = (tp + tn) / len(test)
    recall = tp / (tp + fn) if (tp + fn) > 0 else 1.0
    precision = tp / (tp + fp) if (tp + fp) > 0 else 1.0
    f1 = 0.0 if precision + recall == 0 else 2 * precision * recall / (precision + recall)
    return GlobalMetrics(accuracy=accuracy, recall=recall, f1=f1)


def selection_size(select_fraction: float, pool_size: int) -> int:
    """Round(fraction * pool) with half away from zero, floored at 2, capped at the pool."""
    if not 0.0 < select_fraction <= 1.0:
        raise ValueError("select_fraction must be in (0, 1]")
    k = max(2, int(math.floor(select_fraction * pool_size + 0.5)))
    return min(k, pool_size)


def _draw_round(rng: np.random.Generator, k: int, m: int):
    """A round's whole draw from the session stream: its optimizer seed, then shuffles.

    One uint64 seeds the round's optimizer, then one ``rng.permuted`` call
    fills a ``(k, m)`` block, row ``i`` for the ``i``-th selected client in
    ascending pool index.  That call draws the same values, and leaves the
    same state, as ``k`` calls to ``rng.permutation(m)``.  The draw does not
    depend on which clients are selected, so every selector meets the same
    stream.
    """
    seed = int(rng.integers(0, 2**64, dtype=np.uint64))
    return seed, rng.permuted(np.broadcast_to(np.arange(m), (k, m)), axis=1)


def run_round(
    global_params: ModelParams,
    pool,
    config: SessionConfig,
    test: LabeledDataset,
    rng: np.random.Generator,
    epoch: int = 0,
):
    """One federated round over the given client pool.

    Reads the optimizer, fitness weights, selection fraction, coverage bonus,
    learning rate and batch size from ``config``; the pool and test set come
    in ready-made, so its schedule, dataset, partition and noise go unread.
    Every client in the pool must hold the same number of samples.  The
    round takes its draws (``_draw_round``) before it selects,
    trains the cohort as one stack, checks the weights for finiteness once
    and averages them in ``fed_avg``'s order.  Returns the new global
    parameters and the round's record.
    """
    if not pool:
        raise ValueError("pool must be nonempty")
    sizes = {len(client.data) for client in pool}
    if 0 in sizes:
        raise ValueError("cannot train on an empty dataset")
    if len(sizes) > 1:
        raise ValueError(f"pool clients must hold equal data sizes, got {sorted(sizes)}")
    k = selection_size(config.select_fraction, len(pool))
    round_seed, orders = _draw_round(rng, k, sizes.pop())

    objective = SubsetObjective(
        profiles=[c.profile for c in pool],
        weights=config.weights,
        coverage_bonus=config.coverage_bonus,
        class_distributions=[c.class_distribution for c in pool],
    )
    problem = SelectionProblem(n_clients=len(pool), k=k, objective=objective)
    result = optimize(problem, replace(config.optimizer, seed=round_seed))

    cohort = [pool[i].data for i in sorted(result.best_subset)]
    trained = _train_stack(global_params, cohort, orders, config.lr, config.batch_size)
    if not np.isfinite(trained).all():
        raise FloatingPointError("model parameters must be finite")
    new_global = _average(trained, [len(data) for data in cohort])
    metrics = evaluate_global(new_global, test)
    record = RoundRecord(
        epoch=epoch,
        available=len(pool),
        selected=result.best_subset,
        selection_value=result.best_value,
        metrics=metrics,
    )
    return new_global, record


@dataclass(frozen=True)
class SessionConfig:
    """Everything one simulated federated session needs besides its seed.

    ``optimizer.seed`` is never read in a session: each round draws its own
    optimizer seed from the session's generator.

    ``lr`` is at most 1e6.  The residual lies in [-1, 1] and a drawn
    feature's magnitude is below 60 (a Gaussian draw beyond 40 has
    probability under 1e-300, and the class shift is at most 20), so one
    step moves a weight by at most ``60 * lr`` and the bias by at most
    ``lr``.  FedAvg only averages, so after a session every parameter is
    below ``6e7 * n_train_per_client * epochs``, which no session that fits
    in memory brings near overflow at 1.8e308; ``lr`` 1e307 with batch size
    1 did.  ``coverage_bonus`` is at most 1e6 too: the bonus term lies in
    [0, coverage_bonus], so it adds at most 1e6 to a subset's score, on the
    same footing as the fitness weights (see ``FitnessWeights``).
    """

    schedule: ParticipationSchedule
    dataset: DatasetSpec = field(default_factory=DatasetSpec)
    partition: PartitionSpec = field(default_factory=PartitionSpec)
    noise: NoiseSpec = field(default_factory=NoiseSpec)
    optimizer: OptimizerParams = field(
        default_factory=lambda: OptimizerParams("gwo")
    )
    weights: FitnessWeights = field(default_factory=FitnessWeights)
    select_fraction: float = 0.4
    coverage_bonus: float = 0.0
    lr: float = 0.1
    batch_size: int = 32

    def __post_init__(self) -> None:
        if not 0.0 < self.select_fraction <= 1.0:
            raise ValueError("select_fraction must be in (0, 1]")
        if not 0 <= self.coverage_bonus < math.inf:
            raise ValueError("coverage_bonus must be nonnegative and finite")
        if self.coverage_bonus > 1e6:
            raise ValueError(f"coverage_bonus must be <= 1e6, got {self.coverage_bonus}")
        if not 0 < self.lr < math.inf:
            raise ValueError("lr must be > 0 and finite")
        if self.lr > 1e6:
            raise ValueError(f"lr must be <= 1e6, got {self.lr}")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")


def build_clients(config: SessionConfig, rng: np.random.Generator):
    """Materialize the session's master client list and its global test set.

    The clients' data is drawn as one block (``gen_client_datasets``), bit
    for bit what ``gen_dataset`` and the client's flip draws would give
    client by client; the test set is drawn after it.

    The master list covers the schedule's largest participation count so a
    decreasing schedule can start full; an epoch's pool is a prefix of this
    list, which keeps sessions comparable across algorithms under one seed.
    """
    n_master = max(config.schedule.start, config.schedule.end)
    profiles = sample_client_profiles(n_master, config.noise, rng)
    if config.partition.mode == "dirichlet":
        proportions = dirichlet_partition(
            config.partition.alpha, n_master, config.dataset.n_classes, rng
        )
    else:
        proportions = [np.array([0.5, 0.5]) for _ in range(n_master)]

    datasets = gen_client_datasets(
        config.dataset,
        config.dataset.n_train_per_client,
        proportions,
        [profile.label_flip_rate for profile in profiles],
        rng,
    )
    clients = [
        ClientState(profile=profile, data=data, class_distribution=mix)
        for profile, data, mix in zip(profiles, datasets, proportions)
    ]
    test = gen_dataset(config.dataset, config.dataset.n_test, (0.5, 0.5), rng)
    return clients, test


def run_session(config: SessionConfig, seed: int) -> list:
    """Run a full multi-round session; returns one RoundRecord per epoch.

    An overflow or invalid value anywhere in the session raises
    ``FloatingPointError`` instead of a warning, so a setting that blows up
    the arithmetic (a huge ``lr`` or fitness weight) stops the session
    rather than scoring a broken model.
    """
    rng = np.random.default_rng(seed)
    records = []
    with np.errstate(over="raise", invalid="raise"):
        clients, test = build_clients(config, rng)
        params = ModelParams.zeros(config.dataset.n_features)
        for epoch in range(config.schedule.epochs):
            available = participation_at(config.schedule, epoch)
            params, record = run_round(
                params, clients[:available], config, test, rng, epoch=epoch
            )
            records.append(record)
    return records
