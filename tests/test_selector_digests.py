"""Pinned digests of every selector's output on the four benchmark shapes.

Each selector runs at its defaults on the 10/3, 12/4-with-coverage, 25/10 and
50/20 instances, with fixed problem and optimizer seeds, and one sha256 per
selector covers the sorted best subset, ``best_value.hex()`` and the trace in
hex of all four runs.  A refactor or speed-up must leave every digest
unchanged.  A change that means to alter a selector's output updates that
selector's digest and says so in CHANGES.md.

The evaluation counts of the four runs are pinned apart, in EVALUATIONS: they
are the cost of a result, not the result, and a search that stops at a
certified optimum (``swarm.optimize``) scores fewer candidates.  The 12/4
shape has a coverage bonus, so no certificate, and keeps its full count.
"""

import hashlib

import numpy as np
import pytest

from swarmfl.datagen import NoiseSpec, sample_client_profiles
from swarmfl.fitness import SubsetObjective
from swarmfl.swarm import ALGORITHM_NAMES, OptimizerParams, SelectionProblem, optimize


def _problem(n, k, seed, noise=0.0, bonus=0.0):
    rng = np.random.default_rng(seed)
    profiles = sample_client_profiles(n, NoiseSpec(noise), rng)
    mixes = rng.dirichlet(np.full(2, 0.5), size=n) if bonus > 0 else None
    objective = SubsetObjective(
        profiles=profiles, coverage_bonus=bonus, class_distributions=mixes
    )
    return SelectionProblem(n_clients=n, k=k, objective=objective)


# (problem, optimizer seed)
SHAPES = (
    (_problem(10, 3, seed=901), 11),
    (_problem(12, 4, seed=902, bonus=0.3), 12),
    (_problem(25, 10, seed=903, noise=0.25), 13),
    (_problem(50, 20, seed=904), 14),
)

DIGESTS = {
    "gwo": "285d8f78389ac2eb7a039c0612af765e34589df0697aa740bd580664ac777929",
    "pso": "df487cdf76447b7407e6815d17d0abfa26cc03dad35456ad3f581b9fdf83375a",
    "cuckoo": "54c94a647c694c38bfc51f6a3c15e38c2ced245c36195bb2beee4b2aac53039a",
    "bat": "ef0e3e1c7519aaa51697136844b9e2c5bb358fe29b2c6d3426d089dc5a64ddcb",
    "bee": "0c4976a6b833e9eb46b19d56872fc1754005f8da31bce5e8fc378af5c36ac490",
    "aco": "3e46449fe8cf6a9af59935ac53e1bf619a67ab3d48b354f47f4a7ddb405294bc",
    "fish": "5c7e007e273b7c382fba0d539a711130b0db425513618ca9fc07fecd7034d42c",
    "glowworm": "bdc9d9e918dba46c317347de6ffd27cdd4a8181b208ce4999c8127aca7f27572",
    "iwd": "92891f896752c33bee102496a2a22d2c6f9cb37c602ff7da320729627e2a40bc",
}

EVALUATIONS = {
    "gwo": (40, 2020, 360, 2020),
    "pso": (140, 2020, 1320, 2020),
    "cuckoo": (370, 2520, 2520, 2520),
    "bat": (60, 4020, 2180, 4020),
    "bee": (370, 2016, 2010, 2010),
    "aco": (20, 2000, 100, 280),
    "fish": (221, 5898, 4188, 5743),
    "glowworm": (760, 2020, 2020, 2020),
    "iwd": (160, 2000, 2000, 2000),
}


def selector_output(name):
    """The digest of the four runs' results, and their evaluation counts."""
    digest = hashlib.sha256()
    evaluations = []
    for problem, seed in SHAPES:
        result = optimize(problem, OptimizerParams(name, seed=seed))
        digest.update(
            (
                f"{sorted(result.best_subset)}|{result.best_value.hex()}|"
                f"{','.join(v.hex() for v in result.trace)}\n"
            ).encode()
        )
        evaluations.append(result.evaluations)
    return digest.hexdigest(), tuple(evaluations)


@pytest.mark.parametrize("name", ALGORITHM_NAMES)
def test_selector_output_digest(name):
    digest, evaluations = selector_output(name)
    assert digest == DIGESTS[name]
    assert evaluations == EVALUATIONS[name]
