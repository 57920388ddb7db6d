import math

import numpy as np
import pytest

from swarmfl.datagen import (
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
from swarmfl.errors import ConfigError


# --- client profiles ----------------------------------------------------------


def test_profile_fields_stay_in_their_ranges():
    profiles = sample_client_profiles(1000, NoiseSpec(0.5), np.random.default_rng(21))
    assert len(profiles) == 1000
    for p in profiles:
        assert 0.5 <= p.det_accuracy <= 1.0
        assert 0.0 <= p.false_positive_rate <= 0.2
        assert 0.1 <= p.response_time <= 1.0
        assert 0.0 <= p.reported_accuracy <= 1.0
        assert p.label_flip_rate == 1.0 - p.det_accuracy


def test_profile_no_noise_reports_truth():
    profiles = sample_client_profiles(500, NoiseSpec(0.0), np.random.default_rng(22))
    for p in profiles:
        assert p.reported_accuracy == p.det_accuracy


def test_profile_mean_detection_accuracy():
    profiles = sample_client_profiles(100_000, NoiseSpec(0.0), np.random.default_rng(23))
    mean = sum(p.det_accuracy for p in profiles) / len(profiles)
    assert abs(mean - 0.75) < 0.01


def test_profile_draw_order_is_reproducible():
    seed, n, level = 77, 40, 0.3
    profiles = sample_client_profiles(n, NoiseSpec(level), np.random.default_rng(seed))
    mirror = np.random.default_rng(seed)
    det = mirror.uniform(0.5, 1.0, n)
    fpr = mirror.uniform(0.0, 0.2, n)
    rt = mirror.uniform(0.1, 1.0, n)
    shift = mirror.uniform(-level, level, n)
    reported = np.clip(det + shift, 0.0, 1.0)
    for i, p in enumerate(profiles):
        assert p.det_accuracy == det[i]
        assert p.false_positive_rate == fpr[i]
        assert p.response_time == rt[i]
        assert p.reported_accuracy == reported[i]


def test_profile_needs_positive_count():
    with pytest.raises(ValueError):
        sample_client_profiles(0, NoiseSpec(0.0), np.random.default_rng(0))


# --- dataset generation ---------------------------------------------------------


def test_gen_dataset_label_fraction_and_shift():
    spec = DatasetSpec()
    data = gen_dataset(spec, 100_000, (0.3, 0.7), np.random.default_rng(31))
    assert len(data) == 100_000
    frac = float(np.mean(data.labels))
    assert abs(frac - 0.7) < 0.01
    mean1 = data.features[data.labels == 1].mean(axis=0)
    mean0 = data.features[data.labels == 0].mean(axis=0)
    gap = mean1 - mean0
    expected = spec.class_separation / math.sqrt(spec.n_features)
    assert np.all(np.abs(gap - expected) < 0.05)
    assert abs(float(np.linalg.norm(gap)) - spec.class_separation) < 0.05


def test_gen_dataset_degenerate_proportions():
    spec = DatasetSpec()
    zeros = gen_dataset(spec, 500, (1.0, 0.0), np.random.default_rng(32))
    assert not zeros.labels.any()
    ones = gen_dataset(spec, 500, (0.0, 1.0), np.random.default_rng(33))
    assert ones.labels.all()


def test_gen_dataset_draw_order_is_reproducible():
    spec = DatasetSpec(n_features=4, class_separation=1.0)
    data = gen_dataset(spec, 64, (0.5, 0.5), np.random.default_rng(34))
    mirror = np.random.default_rng(34)
    labels = (mirror.random(64) < 0.5).astype(int)
    features = mirror.standard_normal((64, 4)) + labels[:, None] * (1.0 / 2.0)
    assert np.array_equal(data.labels, labels)
    assert np.array_equal(data.features, features)


def test_gen_dataset_errors():
    spec = DatasetSpec()
    rng = np.random.default_rng(35)
    with pytest.raises(ValueError):
        gen_dataset(spec, 10, (0.5, 0.3, 0.2), rng)
    with pytest.raises(ValueError):
        gen_dataset(spec, 10, (0.7, 0.7), rng)
    with pytest.raises(ValueError):
        gen_dataset(spec, 10, (-0.1, 1.1), rng)
    with pytest.raises(ValueError):
        gen_dataset(spec, 0, (0.5, 0.5), rng)


@pytest.mark.parametrize(
    "proportions", [(math.nan, 0.5), (0.5, math.nan), (math.nan, math.nan)]
)
def test_gen_dataset_rejects_nan_proportions(proportions):
    # A NaN share would label every sample 0 (u < NaN is false).
    with pytest.raises(ValueError):
        gen_dataset(DatasetSpec(), 10, proportions, np.random.default_rng(36))


# --- partitions -------------------------------------------------------------------


def test_dirichlet_rows_are_distributions():
    parts = dirichlet_partition(0.5, 50, 2, np.random.default_rng(41))
    assert len(parts) == 50
    for p in parts:
        assert p.shape == (2,)
        assert np.all(p >= 0)
        assert abs(float(p.sum()) - 1.0) < 1e-9


def test_dirichlet_high_alpha_is_nearly_uniform():
    parts = dirichlet_partition(1e6, 1000, 2, np.random.default_rng(42))
    for p in parts:
        assert abs(float(p[0]) - 0.5) < 0.01


def test_dirichlet_low_alpha_is_skewed():
    parts = dirichlet_partition(0.1, 1000, 2, np.random.default_rng(43))
    mean_max = float(np.mean([p.max() for p in parts]))
    assert mean_max > 0.8


def test_dirichlet_errors():
    rng = np.random.default_rng(44)
    with pytest.raises(ValueError):
        dirichlet_partition(0.0, 5, 2, rng)
    with pytest.raises(ValueError):
        dirichlet_partition(0.5, 0, 2, rng)
    with pytest.raises(ValueError):
        dirichlet_partition(0.5, 5, 1, rng)


# --- label corruption ---------------------------------------------------------------


def client_data(rates, n, seed):
    """``gen_client_datasets`` at the given per-client flip rates, one balanced set each."""
    return gen_client_datasets(
        DatasetSpec(), n, [(0.5, 0.5)] * len(rates), rates, np.random.default_rng(seed)
    )


def test_corrupt_rate_zero_and_one():
    clean = gen_dataset(DatasetSpec(), 400, (0.5, 0.5), np.random.default_rng(51))
    [same] = client_data([0.0], 400, 51)
    assert np.array_equal(same.labels, clean.labels)
    [flipped] = client_data([1.0], 400, 51)
    assert np.array_equal(flipped.labels, 1 - clean.labels)


def test_corrupt_rate_matches_fraction():
    # The draws do not depend on the rates, so rate 0 gives each client's
    # unflipped labels; each client flips at its own rate.
    rates = [0.1, 0.3, 0.6]
    clean = client_data([0.0] * 3, 30_000, 54)
    noisy = client_data(rates, 30_000, 54)
    for before, after, rate in zip(clean, noisy, rates):
        assert abs(float(np.mean(after.labels != before.labels)) - rate) < 0.02


def test_corrupt_keeps_features():
    # Labels flip after the class shift, so the features keep the true class.
    clean = client_data([0.0, 0.0], 100, 56)
    noisy = client_data([0.5, 1.0], 100, 56)
    for before, after in zip(clean, noisy):
        assert np.array_equal(after.features, before.features)
    assert not np.array_equal(noisy[1].labels, clean[1].labels)


def test_corrupt_rate_bounds():
    for rates in ([-0.1], [1.1], [0.5, float("nan")]):
        with pytest.raises(ValueError, match="flip rates must be in"):
            client_data(rates, 10, 0)


# --- participation schedules ----------------------------------------------------------


def test_schedule_fixed_is_constant():
    sched = ParticipationSchedule("fixed", 25, 25, 10)
    assert [participation_at(sched, e) for e in range(10)] == [25] * 10


def test_schedule_increasing_endpoints_and_interior():
    sched = ParticipationSchedule("increasing", 5, 25, 20)
    counts = [participation_at(sched, e) for e in range(20)]
    assert counts[0] == 5
    assert counts[-1] == 25
    assert counts[10] == 16  # 5 + 20*10/19 = 15.526... rounds half away from zero
    assert all(b >= a for a, b in zip(counts, counts[1:]))


def test_schedule_decreasing_mirrors_increasing():
    up = ParticipationSchedule("increasing", 5, 25, 20)
    down = ParticipationSchedule("decreasing", 25, 5, 20)
    ups = [participation_at(up, e) for e in range(20)]
    downs = [participation_at(down, e) for e in range(20)]
    assert downs == ups[::-1]
    assert all(b <= a for a, b in zip(downs, downs[1:]))


def test_schedule_single_epoch():
    sched = ParticipationSchedule("fixed", 7, 7, 1)
    assert participation_at(sched, 0) == 7


def test_schedule_epoch_bounds():
    sched = ParticipationSchedule("fixed", 5, 5, 3)
    with pytest.raises(ValueError):
        participation_at(sched, -1)
    with pytest.raises(ValueError):
        participation_at(sched, 3)


def test_schedule_validation():
    with pytest.raises(ConfigError):
        ParticipationSchedule("sinusoidal", 5, 25, 10)
    with pytest.raises(ConfigError):
        ParticipationSchedule("fixed", 5, 25, 10)
    with pytest.raises(ConfigError):
        ParticipationSchedule("increasing", 25, 5, 10)
    with pytest.raises(ConfigError):
        ParticipationSchedule("decreasing", 5, 25, 10)
    with pytest.raises(ConfigError):
        ParticipationSchedule("increasing", 5, 25, 1)
    with pytest.raises(ValueError):
        ParticipationSchedule("fixed", 0, 0, 10)
    with pytest.raises(ValueError):
        ParticipationSchedule("fixed", 5, 5, 0)


# --- config dataclasses -----------------------------------------------------------------


def test_dataset_spec_validation():
    with pytest.raises(ValueError):
        DatasetSpec(n_train_per_client=0)
    with pytest.raises(ValueError):
        DatasetSpec(class_separation=0.0)
    with pytest.raises(ValueError, match="class_separation must be <= 20"):
        DatasetSpec(class_separation=1e300)
    assert DatasetSpec(class_separation=20).class_separation == 20
    with pytest.raises(ValueError):
        DatasetSpec(n_classes=3)


@pytest.mark.parametrize("separation", [math.nan, -math.inf])
def test_dataset_spec_rejects_nan(separation):
    with pytest.raises(ValueError):
        DatasetSpec(class_separation=separation)


@pytest.mark.parametrize("mode", ["iid", "dirichlet"])
def test_partition_spec_rejects_nan(mode):
    with pytest.raises(ValueError):
        PartitionSpec(mode=mode, alpha=math.nan)
    with pytest.raises(ValueError):
        dirichlet_partition(math.nan, 3, 2, np.random.default_rng(0))


@pytest.mark.parametrize("separation", [math.inf, -math.inf])
def test_dataset_spec_rejects_infinity(separation):
    with pytest.raises(ValueError, match="finite"):
        DatasetSpec(class_separation=separation)


@pytest.mark.parametrize("mode", ["iid", "dirichlet"])
def test_partition_spec_rejects_infinity(mode):
    with pytest.raises(ValueError, match="finite"):
        PartitionSpec(mode=mode, alpha=math.inf)
    with pytest.raises(ValueError, match="finite"):
        dirichlet_partition(math.inf, 2, 2, np.random.default_rng(0))


def test_partition_spec_validation():
    with pytest.raises(ConfigError):
        PartitionSpec(mode="zipf")
    with pytest.raises(ValueError):
        PartitionSpec(mode="dirichlet", alpha=0.0)
    with pytest.raises(ValueError, match="alpha must be <= 1e6"):
        PartitionSpec(mode="dirichlet", alpha=1e308)
    assert PartitionSpec().mode == "iid"


def test_noise_spec_validation():
    with pytest.raises(ValueError):
        NoiseSpec(-0.1)
    with pytest.raises(ValueError):
        NoiseSpec(1.5)


def test_noise_spec_rejects_negative_zero():
    # -0.0 equals 0.0, but sample_client_profiles' uniform(-level, level) rejects it.
    with pytest.raises(ValueError, match=r"noise level must be in \[0,1\], got -0.0"):
        NoiseSpec(-0.0)
    assert NoiseSpec(0.0).level == 0.0 and NoiseSpec(0).level == 0
    sample_client_profiles(3, NoiseSpec(0.0), np.random.default_rng(0))


def test_labeled_dataset_validation():
    with pytest.raises(ValueError):
        LabeledDataset(features=np.zeros((3, 2)), labels=np.zeros(4, dtype=int))
    with pytest.raises(ValueError):
        LabeledDataset(features=np.zeros((2, 2)), labels=np.array([0, 2]))
    data = LabeledDataset(features=np.zeros((2, 2)), labels=np.array([0, 1]))
    assert len(data) == 2


@pytest.mark.parametrize(
    "labels",
    [[0, 2], [-1, 1], [0.5, 1.0], [0.0, np.nan], [2], [np.nan]],
    ids=["two", "minus-one", "half", "nan", "lone-two", "lone-nan"],
)
def test_labeled_dataset_rejects_non_binary_labels(labels):
    labels = np.asarray(labels)
    with pytest.raises(ValueError, match="binary"):
        LabeledDataset(features=np.zeros((labels.size, 1)), labels=labels)


@pytest.mark.parametrize(
    "labels",
    [
        np.array([0, 1, 1, 0]),
        np.array([0, 1], dtype=np.int8),
        np.array([False, True]),
        np.array([0.0, 1.0, 0.0]),
        np.array([1.0], dtype=np.float32),
        np.zeros(0),
    ],
    ids=["int", "int8", "bool", "float", "float32", "empty"],
)
def test_labeled_dataset_accepts_binary_labels(labels):
    data = LabeledDataset(features=np.zeros((labels.size, 2)), labels=labels)
    assert len(data) == labels.size
