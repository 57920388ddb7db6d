"""Synthetic world generation: client metrics, datasets, partitions, schedules.

Client quality metrics are drawn uniformly from fixed ranges (detection
accuracy 50-100%, false positive rate 0-20%, response time 0.1-1s).  The
labeled data is a two-class Gaussian mixture whose class means sit
``class_separation`` apart, and a client's labels are flipped at a rate tied
to its detection accuracy, so selecting bad clients really does feed the
global model worse data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .fitness import _SUM_TOL, ClientProfile

__all__ = [
    "DatasetSpec",
    "PartitionSpec",
    "NoiseSpec",
    "ParticipationSchedule",
    "LabeledDataset",
    "sample_client_profiles",
    "gen_dataset",
    "gen_client_datasets",
    "dirichlet_partition",
    "participation_at",
]


@dataclass(frozen=True)
class DatasetSpec:
    """Shape of the synthetic detection task (two classes: 0 benign, 1 intrusion).

    ``class_separation`` is at most 20: the Bayes accuracy Phi(s/2) is
    already 1 - 1e-23 there, so a wider gap only scales the features, and a
    huge one overflows the model's logits.
    """

    n_train_per_client: int = 200
    n_test: int = 2000
    n_features: int = 10
    class_separation: float = 2.0
    n_classes: int = 2

    def __post_init__(self) -> None:
        if self.n_train_per_client < 1 or self.n_test < 1 or self.n_features < 1:
            raise ValueError("dataset counts must be >= 1")
        if not 0 < self.class_separation < math.inf:
            raise ValueError("class_separation must be > 0 and finite")
        if self.class_separation > 20:
            raise ValueError(f"class_separation must be <= 20, got {self.class_separation}")
        if self.n_classes != 2:
            raise ValueError("only the two-class task is supported")


@dataclass(frozen=True)
class PartitionSpec:
    """How per-client class proportions are assigned.

    ``alpha`` is at most 1e6: there every class share is within 1e-3 of 1/2,
    as ``iid`` gives, and near 1e308 numpy's Dirichlet draws come out as zeros.
    """

    mode: str = "iid"
    alpha: float = 0.5

    def __post_init__(self) -> None:
        if self.mode not in ("iid", "dirichlet"):
            raise ConfigError(f"partition mode must be iid or dirichlet, got {self.mode!r}")
        if not 0 < self.alpha < math.inf:
            raise ValueError("alpha must be > 0 and finite")
        if self.alpha > 1e6:
            raise ValueError(f"alpha must be <= 1e6, got {self.alpha}")


@dataclass(frozen=True)
class NoiseSpec:
    """Additive noise level applied to the accuracy clients report."""

    level: float = 0.0

    def __post_init__(self) -> None:
        # -0.0 passes the range test, but uniform(-level, level) rejects it.
        if not 0.0 <= self.level <= 1.0 or math.copysign(1.0, self.level) < 0:
            raise ValueError(f"noise level must be in [0,1], got {self.level}")


@dataclass(frozen=True)
class ParticipationSchedule:
    kind: str = "fixed"
    start: int = 25
    end: int = 25
    epochs: int = 10

    def __post_init__(self) -> None:
        if self.kind not in ("fixed", "increasing", "decreasing"):
            raise ConfigError(f"unknown schedule kind {self.kind!r}")
        if self.start < 1 or self.end < 1:
            raise ValueError("start and end must be >= 1")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.kind == "fixed" and self.start != self.end:
            raise ConfigError("fixed schedule requires start == end")
        if self.kind == "increasing" and self.start > self.end:
            raise ConfigError("increasing schedule requires start <= end")
        if self.kind == "decreasing" and self.start < self.end:
            raise ConfigError("decreasing schedule requires start >= end")
        if self.epochs == 1 and self.start != self.end:
            raise ConfigError("single-epoch schedule cannot move between sizes")


@dataclass(frozen=True)
class LabeledDataset:
    features: np.ndarray
    labels: np.ndarray

    def __post_init__(self) -> None:
        if self.features.shape[0] != self.labels.shape[0]:
            raise ValueError("features and labels row counts differ")
        if self.labels.size and not ((self.labels == 0) | (self.labels == 1)).all():
            raise ValueError("labels must be binary")

    def __len__(self) -> int:
        return int(self.labels.shape[0])


def sample_client_profiles(
    n: int, noise: NoiseSpec, rng: np.random.Generator
) -> list:
    """Draw n client profiles; the reported accuracy gets +-level uniform noise.

    Draw order (detection accuracies, FPRs, response times, then the noise
    block) is fixed so the same generator state always produces the same
    clients.
    """
    if n < 1:
        raise ValueError("need at least one client")
    det = rng.uniform(0.5, 1.0, n)
    fpr = rng.uniform(0.0, 0.2, n)
    rt = rng.uniform(0.1, 1.0, n)
    shift = rng.uniform(-noise.level, noise.level, n)
    reported = np.clip(det + shift, 0.0, 1.0)
    return [
        ClientProfile(
            det_accuracy=float(det[i]),
            false_positive_rate=float(fpr[i]),
            response_time=float(rt[i]),
            reported_accuracy=float(reported[i]),
        )
        for i in range(n)
    ]


def gen_dataset(
    spec: DatasetSpec,
    n_samples: int,
    class_proportions,
    rng: np.random.Generator,
) -> LabeledDataset:
    """Sample a labeled set: class labels per the proportions, Gaussian features.

    Class 0 is centered at the origin; class 1 is shifted by
    class_separation / sqrt(n_features) along every axis, so the distance
    between class means equals class_separation.
    """
    props = _class_proportions(class_proportions, (2,))
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")

    labels = _labels(rng.random(n_samples), props[1])
    features = rng.standard_normal((n_samples, spec.n_features))
    _shift(features, labels, spec)
    return LabeledDataset(features=features, labels=labels)


def gen_client_datasets(
    spec: DatasetSpec,
    n_samples: int,
    class_proportions,
    flip_rates,
    rng: np.random.Generator,
) -> list:
    """One corrupted labeled set per client, drawn as one block.

    Bit for bit, and with the same generator state after, the same as
    ``gen_dataset`` for each client in turn, each followed by that client's
    ``rng.random(n_samples)`` flip draws: client by client, the generator
    fills that client's row of three blocks, its label draws, its
    ``(n_samples, n_features)`` features and its flip draws.  A label flips
    where its draw falls below the client's rate.  The label, shift and flip
    transforms then run once over the whole ``(clients, n_samples,
    n_features)`` block, and each client's set is a view of its row.
    ``class_proportions`` holds one pair per client and ``flip_rates`` one
    rate per client.
    """
    n = len(flip_rates)
    if n < 1:
        raise ValueError("need at least one client")
    props = _class_proportions(class_proportions, (n, 2))
    rates = np.asarray(flip_rates, dtype=float)
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    if not np.all((rates >= 0.0) & (rates <= 1.0)):
        raise ValueError(f"flip rates must be in [0,1], got {rates}")

    label_draws = np.empty((n, n_samples))
    features = np.empty((n, n_samples, spec.n_features))
    flip_draws = np.empty((n, n_samples))
    for i in range(n):
        rng.random(out=label_draws[i])
        rng.standard_normal(out=features[i])
        rng.random(out=flip_draws[i])
    labels = _labels(label_draws, props[:, 1:])
    _shift(features, labels, spec)
    labels = _flip(labels, flip_draws, rates[:, None])
    return [LabeledDataset(features=features[i], labels=labels[i]) for i in range(n)]


def _class_proportions(values, shape) -> np.ndarray:
    """``values`` as floats of ``shape``, each last-axis pair nonnegative and summing to 1."""
    props = np.asarray(values, dtype=float)
    if props.shape != shape:
        raise ValueError(f"class_proportions must have shape {shape}, got {props.shape}")
    if not (np.all(props >= 0) and np.all(np.abs(props.sum(axis=-1) - 1.0) <= _SUM_TOL)):
        raise ValueError("class_proportions must be nonnegative and sum to 1")
    return props


def _labels(draws: np.ndarray, positive_share) -> np.ndarray:
    """Label 1 where a U[0,1) draw falls below the class-1 share, else 0."""
    return (draws < positive_share).astype(int)


def _shift(features: np.ndarray, labels: np.ndarray, spec: DatasetSpec) -> None:
    """Move class-1 rows by class_separation / sqrt(n_features) on every axis, in place."""
    features += labels[..., None] * (spec.class_separation / math.sqrt(spec.n_features))


def _flip(labels: np.ndarray, draws: np.ndarray, flip_rate) -> np.ndarray:
    """Flip each label whose U[0,1) draw falls below the flip rate."""
    return np.where(draws < flip_rate, 1 - labels, labels)


def dirichlet_partition(
    alpha: float, n_clients: int, n_classes: int, rng: np.random.Generator
) -> list:
    """Per-client class-proportion vectors drawn from a symmetric Dirichlet."""
    if not 0 < alpha < math.inf:
        raise ValueError("alpha must be > 0 and finite")
    if n_clients < 1:
        raise ValueError("n_clients must be >= 1")
    if n_classes < 2:
        raise ValueError("n_classes must be >= 2")
    draws = rng.dirichlet(np.full(n_classes, alpha), size=n_clients)
    return [draws[i] for i in range(n_clients)]


def participation_at(schedule: ParticipationSchedule, epoch: int) -> int:
    """Available-client count at an epoch; endpoints are hit exactly.

    Interior epochs interpolate linearly with half-away-from-zero rounding.
    """
    if not 0 <= epoch < schedule.epochs:
        raise ValueError(
            f"epoch must be in 0..{schedule.epochs - 1}, got {epoch}"
        )
    if schedule.start == schedule.end:
        return schedule.start
    span = schedule.end - schedule.start
    exact = schedule.start + span * epoch / (schedule.epochs - 1)
    return int(math.floor(exact + 0.5))
