"""Pinned digests of whole federated sessions on four default-sized configs.

Each config runs ``run_session`` with a fixed seed, and one sha256 per config
covers every round's epoch, pool size, sorted selection,
``selection_value.hex()`` and the accuracy, recall and F1 in hex.  The
configs are a fixed 25-client iid pool, the 5 -> 25 participation ramp, a
Dirichlet non-IID pool scored with a coverage bonus, and reporting noise 0.5.
Selection, local training, FedAvg and evaluation all feed the digest, so a
refactor or speed-up of any of them must leave every digest unchanged.  A
change that means to alter a session's output updates the digest and says so
in CHANGES.md.
"""

import hashlib

import pytest

from swarmfl.datagen import NoiseSpec, ParticipationSchedule, PartitionSpec
from swarmfl.flsim import SessionConfig, run_session

# name -> (config, session seed)
CONFIGS = {
    "fixed-25-iid": (SessionConfig(schedule=ParticipationSchedule("fixed", 25, 25, 10)), 1501),
    "dynamic-5-25": (SessionConfig(schedule=ParticipationSchedule("increasing", 5, 25, 20)), 1502),
    "noniid-15-coverage": (
        SessionConfig(
            schedule=ParticipationSchedule("fixed", 15, 15, 10),
            partition=PartitionSpec(mode="dirichlet", alpha=0.5),
            coverage_bonus=0.3,
        ),
        1503,
    ),
    "noise-25-0.5": (
        SessionConfig(schedule=ParticipationSchedule("fixed", 25, 25, 10), noise=NoiseSpec(0.5)),
        1504,
    ),
}

DIGESTS = {
    "fixed-25-iid": "e108a16b7e8cbcc8cfa4cb0934bcded2ab6f0f08637374d4abe94b6d7c49a1bc",
    "dynamic-5-25": "0138cacee124a1a472b5f5a79e9291f1d34a2f1dbb3b263e66e904ddc297907d",
    "noniid-15-coverage": "343f0b1aad649c6a34cbfe263e0c94f9f098783138cc7b65b65064763dadf284",
    "noise-25-0.5": "f39ff47c64a6fff75e5227a19f7afc902ee1f66a9fd3ab5e3ca26e1e320d6782",
}


def session_digest(name):
    config, seed = CONFIGS[name]
    digest = hashlib.sha256()
    for r in run_session(config, seed):
        m = r.metrics
        digest.update(
            (
                f"{r.epoch}|{r.available}|{sorted(r.selected)}|{r.selection_value.hex()}|"
                f"{m.accuracy.hex()}|{m.recall.hex()}|{m.f1.hex()}\n"
            ).encode()
        )
    return digest.hexdigest()


@pytest.mark.parametrize("name", CONFIGS)
def test_session_output_digest(name):
    assert session_digest(name) == DIGESTS[name]
