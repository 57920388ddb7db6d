"""Pinned digests of every selector's output on the four benchmark shapes.

Each selector runs at its defaults on the 10/3, 12/4-with-coverage, 25/10 and
50/20 instances, with fixed problem and optimizer seeds, and one sha256 per
selector covers the sorted best subset, ``best_value.hex()``, the trace in hex
and the evaluation count of all four runs.  A refactor or speed-up must leave
every digest unchanged.  A change that means to alter a selector's output
updates that selector's digest and says so in CHANGES.md.
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
    "gwo": "6a14bd14aee8efbc1c87056f3f58a14d2297ea348cc93fc70b54da5003fbcf78",
    "pso": "189965f916bf29351b625373717991bbfc2288f929ea6a6729f122bc92363479",
    "cuckoo": "908f3e74f666dac409ec55a8520fbd55836d397be28699f7b5c45128d8f2a387",
    "bat": "cbb2ad0458a9f84c0a25b9467e96979fb32ed4795e9be6ba5ca29cb23b32011a",
    "bee": "1647aed1a61c3982a4a44aa4ca6070e971b8f1e6a6a1a4027f88bab6905262f3",
    "aco": "9c24bc120ae77b6ce807425d4a83322d42157db25574ab6ff0bb4d973f873aca",
    "fish": "3a856b90d3dc48302bf16f78c585236ae8257419ee38665b8ebbf274de24b69d",
    "glowworm": "d917e292c4634437948bec0371d59fb945fa77941ee5b5280fc31054b241eb86",
    "iwd": "9c717f37162f49a27f513b8f119adb6c12a6f6fff182b4c716b1e52d883ec0e7",
}


def selector_digest(name):
    digest = hashlib.sha256()
    for problem, seed in SHAPES:
        result = optimize(problem, OptimizerParams(name, seed=seed))
        digest.update(
            (
                f"{sorted(result.best_subset)}|{result.best_value.hex()}|"
                f"{','.join(v.hex() for v in result.trace)}|{result.evaluations}\n"
            ).encode()
        )
    return digest.hexdigest()


@pytest.mark.parametrize("name", ALGORITHM_NAMES)
def test_selector_output_digest(name):
    assert selector_digest(name) == DIGESTS[name]
