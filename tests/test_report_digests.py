"""Pinned digests of the whole report of each default experiment family.

Each family's default grid runs through ``run_experiment`` with gwo, aco and
bee, 2 runs, population 6, 8 iterations, 30 training samples per client and
200 test samples, and ``emit_report`` writes it.  One sha256 per family
covers the relative path and the bytes of every file written: summary.csv,
every rounds/ trace and manifest.json.  Cell building, seeding, sessions,
aggregation and report formatting all feed the digest, so a refactor of the
grid layer must leave every digest unchanged.  A change that means to alter
a report updates the digest and says so in CHANGES.md.
"""

import hashlib

import pytest

from swarmfl.datagen import DatasetSpec
from swarmfl.experiments import ExperimentConfig, emit_report, run_experiment

DIGESTS = {
    "fixed": "862c3f7ef187080341f02201423a9539ad77219ab8bac85901532eeffeca5f77",
    "dynamic": "ff71e1b0316098610c13819b002f857d0af9c9b919da2209bcfe6d27f3a6b688",
    "noniid": "871786c193df6873d2c06984ccceaafc6afc501741f406bf95f44eb2b2f17e01",
    "noise": "a07f861cf64bcc38494d00fb5f5d8ebe842c8f02b5165218c8ef4ea4dd93c1f2",
}


def report_digest(experiment, out_dir):
    config = ExperimentConfig(
        experiment=experiment,
        algorithms=("gwo", "aco", "bee"),
        runs=2,
        population=6,
        iterations=8,
        dataset=DatasetSpec(n_train_per_client=30, n_test=200),
    )
    out = emit_report(run_experiment(config), out_dir)
    digest = hashlib.sha256()
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        digest.update(path.relative_to(out).as_posix().encode() + b"\n")
        digest.update(path.read_bytes())
    return digest.hexdigest()


@pytest.mark.parametrize("experiment", sorted(DIGESTS))
def test_report_digest(experiment, tmp_path):
    assert report_digest(experiment, tmp_path / "out") == DIGESTS[experiment]
