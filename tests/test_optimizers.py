import functools
import importlib

import numpy as np
import pytest

from swarmfl.datagen import NoiseSpec, sample_client_profiles
from swarmfl.errors import ConfigError
from swarmfl.fitness import (
    ClientProfile,
    FitnessWeights,
    SubsetObjective,
    subset_objective,
)
from swarmfl.swarm import (
    ALGORITHM_NAMES,
    OptimizerParams,
    SelectionProblem,
    bat,
    bee,
    cuckoo,
    fish,
    glowworm,
    gwo,
    iwd,
    optimize,
    pso,
    support,
)
from swarmfl.swarm.support import (
    BatchObjective,
    decode_rows,
    fold_into_box,
    keyed_sample,
    levy_sample,
)

EVAL_FACTORS = {
    "gwo": 1,
    "pso": 1,
    "cuckoo": 2,
    "bat": 2,
    "bee": 2,
    "aco": 1,
    "fish": 3,
    "glowworm": 1,
    "iwd": 1,
}


def scored_problem(scores, k):
    profiles = [
        ClientProfile(
            det_accuracy=0.8,
            false_positive_rate=0.0,
            response_time=1e9,
            reported_accuracy=s,
        )
        for s in scores
    ]
    obj = SubsetObjective(profiles=profiles, weights=FitnessWeights(1.0, 0.0, 0.0))
    return SelectionProblem(n_clients=len(scores), k=k, objective=obj)


def sampled_problem(n, k, seed):
    profiles = sample_client_profiles(n, NoiseSpec(0.0), np.random.default_rng(seed))
    return SelectionProblem(n_clients=n, k=k, objective=SubsetObjective(profiles=profiles))


def test_algorithm_roster():
    assert ALGORITHM_NAMES == (
        "gwo",
        "pso",
        "cuckoo",
        "bat",
        "bee",
        "aco",
        "fish",
        "glowworm",
        "iwd",
    )


@pytest.mark.parametrize("name", ALGORITHM_NAMES)
def test_small_problem_is_solved_exactly(name):
    problem = scored_problem([0.2, 0.9, 0.4, 0.8, 0.1], k=2)
    result = optimize(problem, OptimizerParams(name, population=20, iterations=50, seed=77))
    assert result.best_subset == {1, 3}
    assert result.best_value == pytest.approx(
        subset_objective(problem.objective, {1, 3}), abs=1e-12
    )


@pytest.mark.parametrize("name", ALGORITHM_NAMES)
def test_degenerate_sizes(name):
    lone = scored_problem([0.4], k=1)
    result = optimize(lone, OptimizerParams(name, population=2, iterations=3, seed=5))
    assert result.best_subset == {0}
    full = scored_problem([0.3, 0.9, 0.1], k=3)
    result = optimize(full, OptimizerParams(name, population=4, iterations=3, seed=5))
    assert result.best_subset == {0, 1, 2}


@pytest.mark.parametrize("name", ALGORITHM_NAMES)
def test_identical_seed_means_identical_result(name):
    problem = sampled_problem(12, 4, seed=42)
    params = OptimizerParams(name, population=10, iterations=20, seed=123)
    a = optimize(problem, params)
    b = optimize(problem, params)
    assert a.best_subset == b.best_subset
    assert a.best_value == b.best_value
    assert a.trace == b.trace
    assert a.evaluations == b.evaluations


@pytest.mark.parametrize("name", ALGORITHM_NAMES)
def test_evaluation_budget(name):
    problem = sampled_problem(15, 5, seed=43)
    pop, iters = 8, 30
    result = optimize(problem, OptimizerParams(name, population=pop, iterations=iters, seed=7))
    assert result.evaluations <= pop * (iters + 1) * EVAL_FACTORS[name]
    assert result.evaluations >= pop  # at least the initial population


@pytest.mark.parametrize("name", ALGORITHM_NAMES)
def test_optimize_enforces_the_budget(name, monkeypatch):
    monkeypatch.setattr(importlib.import_module(f"swarmfl.swarm.{name}"), "EVAL_FACTOR", 0)
    problem = sampled_problem(10, 3, seed=47)
    with pytest.raises(RuntimeError, match="budget"):
        optimize(problem, OptimizerParams(name, population=4, iterations=3, seed=1))


def test_every_evaluation_goes_through_value_rows(monkeypatch):
    # The traced benchmark counts evaluations by wrapping this method on the
    # class; a selector that scored rows some other way would escape it.
    seen = []
    original = BatchObjective.value_rows

    def counting(self, rows):
        seen.append(len(rows))
        return original(self, rows)

    monkeypatch.setattr(BatchObjective, "value_rows", counting)
    problem = sampled_problem(12, 4, seed=48)
    for name in ALGORITHM_NAMES:
        seen.clear()
        result = optimize(problem, OptimizerParams(name, population=6, iterations=5, seed=2))
        assert seen, name
        assert sum(seen) == result.evaluations, name


@pytest.mark.parametrize("name", ALGORITHM_NAMES)
def test_trace_shape_and_monotonicity(name):
    problem = sampled_problem(10, 3, seed=44)
    iters = 25
    result = optimize(problem, OptimizerParams(name, population=6, iterations=iters, seed=9))
    assert len(result.trace) == iters
    assert all(b >= a for a, b in zip(result.trace, result.trace[1:]))
    assert result.trace[-1] == result.best_value


@pytest.mark.parametrize("name", ALGORITHM_NAMES)
def test_reported_value_matches_reported_subset(name):
    problem = sampled_problem(14, 4, seed=45)
    result = optimize(problem, OptimizerParams(name, population=8, iterations=15, seed=11))
    assert len(result.best_subset) == 4
    assert all(0 <= i < 14 for i in result.best_subset)
    assert result.best_value == pytest.approx(
        subset_objective(problem.objective, result.best_subset), abs=1e-12
    )


def test_params_validation():
    with pytest.raises(ConfigError):
        OptimizerParams("firefly")
    with pytest.raises(ValueError):
        OptimizerParams("gwo", population=1)
    with pytest.raises(ValueError):
        OptimizerParams("gwo", iterations=0)
    with pytest.raises(ValueError):
        OptimizerParams("gwo", seed=-1)


def test_problem_validation():
    obj = scored_problem([0.1, 0.2], k=1).objective
    with pytest.raises(ValueError):
        SelectionProblem(n_clients=2, k=0, objective=obj)
    with pytest.raises(ValueError):
        SelectionProblem(n_clients=2, k=3, objective=obj)
    with pytest.raises(ValueError):
        SelectionProblem(n_clients=3, k=1, objective=obj)
    with pytest.raises(ValueError, match="n_clients must be positive"):
        SelectionProblem(n_clients=0, k=1, objective=obj)


def test_bee_neighbor_reflects_off_the_walls():
    # Sources hug both walls and partners sit across the box, so about half
    # the moves overshoot; clamping would leave those exactly on a wall.
    rng = np.random.default_rng(23)
    n_sources, n, moves = 6, 5, 3000
    x = np.concatenate(
        [rng.uniform(1e-3, 0.02, (3, n)), rng.uniform(0.98, 1.0 - 1e-3, (3, n))]
    )
    sources = rng.integers(n_sources, size=moves)
    others = rng.integers(n_sources - 1, size=moves)
    partners = others + (others >= sources)
    dims = rng.integers(n, size=moves)
    phis = rng.uniform(-1.0, 1.0, moves)
    # bee moves one coordinate at a time, on plain floats.
    coords = x.tolist()
    cand = np.array(
        [
            bee.neighbor(coords[i][j], coords[p][j], phi)
            for i, j, p, phi in zip(sources, dims, partners, phis.tolist())
        ]
    )
    assert np.all((cand > 0.0) & (cand < 1.0))


# --- vector update rules against per-step reference loops -------------------------


def reference_iwd_erosion(soil, path, eta_inv):
    """One drop's velocity and erosion, one visit at a time."""
    velocity = iwd.VELOCITY_INIT
    for i in path:
        velocity += iwd.VELOCITY_GAIN / (iwd.PROB_EPS + soil[i])
        travel_time = eta_inv[i] / velocity
        delta = iwd.EROSION_SCALE / (iwd.TIME_EPS + travel_time**2)
        soil[i] = min(max(soil[i] - iwd.EROSION_RATE * delta, iwd.SOIL_MIN), iwd.SOIL_MAX)


def test_iwd_vector_erosion_matches_per_step_loop():
    # iwd's per-drop kernel runs on plain floats and writes each eroded
    # client's sampling weight through a memoryview.  Over a chain of drops,
    # the soil must equal the per-visit loop bit for bit, clip at both bounds
    # and change only on the path; after each drop the weights must be
    # 1 / (PROB_EPS + soil) bit for bit on the path and untouched off it.
    rng = np.random.default_rng(21)
    n = 30
    eta_inv = 1.0 / rng.uniform(0.01, 1.5, n)
    floored = 0
    for trial in range(20):
        expected = rng.uniform(0.01, 30.0, n)
        soil = expected.tolist()
        # arbitrary start weights, unrelated to the soil: only erode writes them
        weights = rng.uniform(1.0, 2.0, n)
        for drop in range(3):
            path = rng.permutation(n)[: 2 + trial]
            on_path = np.isin(np.arange(n), path)
            if drop == 0:
                # above soil_max: the clip pulls it back down
                expected[path[-1]] = soil[path[-1]] = 2e6
            soil_before = expected.copy()
            weights_before = weights.copy()
            reference_iwd_erosion(expected, path, eta_inv)
            iwd.erode(soil, memoryview(weights), path.tolist(), eta_inv.tolist())
            got = np.array(soil)
            assert got.tobytes() == expected.tobytes()
            if drop == 0:
                assert got[path[-1]] == iwd.SOIL_MAX
                assert np.array_equal(np.flatnonzero(got != soil_before), np.sort(path))
            assert got[~on_path].tobytes() == soil_before[~on_path].tobytes()
            refreshed = 1.0 / (iwd.PROB_EPS + got[on_path])
            assert weights[on_path].tobytes() == refreshed.tobytes()
            assert weights[~on_path].tobytes() == weights_before[~on_path].tobytes()
            floored += int(np.sum(got == iwd.SOIL_MIN))
    assert floored > 0


def reference_iwd_vector_erosion(soil, path, eta_inv):
    """iwd's erosion as one vector update of ``soil[path]`` per drop."""
    visited = soil[path]
    velocity = iwd.VELOCITY_GAIN / (iwd.PROB_EPS + visited)
    velocity[0] += iwd.VELOCITY_INIT
    np.add.accumulate(velocity, out=velocity)
    travel_time = eta_inv[path] / velocity
    delta = iwd.EROSION_SCALE / (iwd.TIME_EPS + travel_time**2)
    eroded = visited - iwd.EROSION_RATE * delta
    np.maximum(eroded, iwd.SOIL_MIN, out=eroded)
    soil[path] = np.minimum(eroded, iwd.SOIL_MAX, out=eroded)


def reference_iwd_run(n, k, population, iterations, objective, rng):
    """iwd's drop loop in vector form: every drop recomputes the whole weight vector."""
    soil = np.full(n, iwd.SOIL_INIT)
    eta = objective.fitness - objective.fitness.min() + iwd.ETA_FLOOR
    eta_inv = 1.0 / eta
    for _ in range(iterations):
        races = rng.standard_exponential((population, n))
        paths = np.empty((population, k), dtype=int)
        for d in range(population):
            paths[d] = keyed_sample(1.0 / (iwd.PROB_EPS + soil), races[d], k)
            reference_iwd_vector_erosion(soil, paths[d], eta_inv)
        rows = np.sort(paths, axis=1)
        values = objective.value_rows(rows)
        best = rows[int(np.argmax(values))]
        soil[best] = np.clip(soil[best] * iwd.REINFORCE, iwd.SOIL_MIN, iwd.SOIL_MAX)
        yield


def reference_glowworm_step(snapshot, lucif, radius, r_sense, picks, probes):
    """Move each glowworm in turn from the snapshot, one at a time."""
    population = len(snapshot)
    moved = snapshot.copy()
    radius = radius.copy()
    for i in range(population):
        dist = np.linalg.norm(snapshot - snapshot[i], axis=1)
        dist[i] = np.inf
        brighter = np.flatnonzero((dist < radius[i]) & (lucif > lucif[i]))
        idle = True
        if len(brighter) > 0:
            cum = np.cumsum(lucif[brighter] - lucif[i])
            r = picks[i] * cum[-1]
            j = brighter[min(int(np.searchsorted(cum, r, side="right")), len(brighter) - 1)]
            d = snapshot[j] - snapshot[i]
            norm = np.linalg.norm(d)
            if norm > 0.0:
                moved[i] = fold_into_box(snapshot[i] + glowworm.STEP * d / norm)
                idle = False
        if idle:
            moved[i] = fold_into_box(snapshot[i] + probes[i])
        gain = glowworm.RADIUS_GAIN * (glowworm.TARGET_NEIGHBORS - len(brighter))
        radius[i] = min(r_sense, max(0.0, radius[i] + gain))
    return moved, radius


def test_glowworm_vector_step_matches_per_worm_loop():
    rng = np.random.default_rng(22)
    population, n = 16, 9
    r_sense = 0.5 * np.sqrt(n)
    for _ in range(20):
        snapshot = rng.random((population, n))
        snapshot[1] = snapshot[0]  # coincident positions, different luciferin
        lucif = rng.choice([3.0, 4.0, 4.5, 5.0, 6.0], population)
        lucif[0], lucif[1] = 3.0, 6.0
        radius = rng.choice([0.0, 0.4, 0.9, r_sense], population)
        picks = rng.random(population)
        picks[2] = 1.0 - 2.0**-53  # the largest U[0,1) draw
        probes = rng.uniform(-glowworm.IDLE_PROBE, glowworm.IDLE_PROBE, (population, n))

        expected, expected_radius = reference_glowworm_step(
            snapshot, lucif, radius, r_sense, picks, probes
        )
        got, got_radius = glowworm.step_swarm(snapshot, lucif, radius, r_sense, picks, probes)
        np.testing.assert_allclose(got, expected, rtol=0.0, atol=1e-14)
        np.testing.assert_array_equal(got_radius, expected_radius)


def reference_glowworm_norm_step(snapshot, lucif, radius, r_sense, picks, probes):
    """The step on the full (population, population, N) difference tensor's norms."""
    dist = np.linalg.norm(snapshot[:, None, :] - snapshot[None, :, :], axis=-1)
    np.fill_diagonal(dist, np.inf)
    brighter = (dist < radius[:, None]) & (lucif[None, :] > lucif[:, None])
    counts = brighter.sum(axis=1)
    cum = np.cumsum(np.where(brighter, lucif[None, :] - lucif[:, None], 0.0), axis=1)
    target = support.roulette(cum, picks)
    d = snapshot[target] - snapshot
    norm = np.linalg.norm(d, axis=1)
    moves = (counts > 0) & (norm > 0.0)
    moved = snapshot.copy()
    moved[moves] = fold_into_box(
        snapshot[moves] + glowworm.STEP * d[moves] / norm[moves, None]
    )
    idle = ~moves
    moved[idle] = fold_into_box(snapshot[idle] + probes[idle])
    gain = glowworm.RADIUS_GAIN * (glowworm.TARGET_NEIGHBORS - counts)
    return moved, np.minimum(r_sense, np.maximum(0.0, radius + gain))


def adversarial_glowworm_inputs(rng, population, n):
    """Snapshots with coincident worms and wall or midpoint coordinates, and
    radii on an exact pair distance, one ulp either side of it, or 0."""
    snapshot = rng.random((population, n))
    walls = rng.random((population, n)) < 0.3
    snapshot[walls] = rng.choice([0.0, 0.5, 1.0], walls.sum())
    snapshot[1] = snapshot[0]
    lucif = rng.choice([3.0, 4.0, 4.5, 5.0, 6.0], population)
    lucif[0], lucif[1] = 3.0, 6.0
    dist = np.linalg.norm(snapshot[:, None, :] - snapshot[None, :, :], axis=-1)
    radius = np.empty(population)
    for i in range(population):
        j = (i + 1 + rng.integers(population - 1)) % population
        exact = dist[i, j]
        radius[i] = rng.choice(
            [exact, np.nextafter(exact, 0.0), np.nextafter(exact, np.inf), 0.0]
        )
    return snapshot, lucif, radius


def test_glowworm_step_equals_the_pairwise_norm_step(monkeypatch):
    # The Gram estimate must settle neighbors exactly as the norms do, so
    # positions and radii are compared for equality, and the exact band
    # (which real instances rarely reach) must be entered.
    band_pairs = []
    exact_within = glowworm._exact_within

    def counting(snapshot, rows, cols, radius):
        band_pairs.append(len(rows))
        return exact_within(snapshot, rows, cols, radius)

    monkeypatch.setattr(glowworm, "_exact_within", counting)
    rng = np.random.default_rng(23)
    for n in (1, 2, 10, 50):
        for population in (2, 20):
            r_sense = 0.5 * np.sqrt(n)
            for _ in range(15):
                snapshot, lucif, radius = adversarial_glowworm_inputs(rng, population, n)
                picks = rng.random(population)
                probes = rng.uniform(
                    -glowworm.IDLE_PROBE, glowworm.IDLE_PROBE, (population, n)
                )
                args = (snapshot, lucif, radius, r_sense, picks, probes)
                expected, expected_radius = reference_glowworm_norm_step(*args)
                got, got_radius = glowworm.step_swarm(*args)
                assert np.array_equal(got, expected)
                assert np.array_equal(got_radius, expected_radius)
    assert sum(band_pairs) > 0


# --- batched asynchronous selectors against per-agent reference loops -------------


def reference_fish_run(n, k, population, iterations, objective, rng, fired):
    """Fish one at a time on fish's per-iteration draws, counting branches."""
    visual = fish.VISUAL
    tries = 3

    x = rng.random((population, n))
    values = objective.value_positions(x)

    def evaluate(point):
        return float(objective.value_positions(point[None, :])[0])

    for _ in range(iterations):
        offsets = rng.uniform(-1.0, 1.0, (population, tries, n))
        pulls = rng.random(population)

        def drift(i, target):
            d = target - x[i]
            norm = np.linalg.norm(d)
            if norm == 0.0:
                return x[i].copy()
            return fold_into_box(x[i] + fish.STEP * pulls[i] * d / norm)

        for i in range(population):
            dist = np.linalg.norm(x - x[i], axis=1)
            dist[i] = np.inf
            neighbors = np.flatnonzero(dist < visual)
            crowded = len(neighbors) / population >= fish.CROWDING
            used = 0
            if len(neighbors) > 0 and not crowded:
                j = neighbors[int(np.argmax(values[neighbors]))]
                if values[j] > values[i]:
                    fired["follow"] += 1
                    x[i] = drift(i, x[j])
                    values[i] = evaluate(x[i])
                    continue
                center = x[neighbors].mean(axis=0)
                center_val = evaluate(center)
                used = 1
                if center_val > values[i]:
                    fired["centre"] += 1
                    x[i] = drift(i, center)
                    values[i] = evaluate(x[i])
                    continue
            elif len(neighbors) > 0:
                fired["crowded"] += 1
            for p in range(tries - used):
                trial = fold_into_box(x[i] + visual * offsets[i, p])
                trial_val = evaluate(trial)
                if trial_val > values[i]:
                    x[i] = trial
                    values[i] = trial_val
                    break
        yield


def reference_bee_run(n, k, population, iterations, objective, rng, scouts):
    """The per-bee loop on per-phase draw blocks: one move and one call at a time.

    Each phase draws its dimensions, partners and steps with their own
    ``integers``/``integers``/``uniform`` calls; bee's four calls per
    iteration must reproduce them.  Appends each re-scouted source to ``scouts``.
    """
    n_sources = max(2, population // 2)
    n_onlookers = population - n_sources
    limit = n_sources * n

    x = rng.random((n_sources, n))
    values = objective.value_positions(x)
    trials = np.zeros(n_sources, dtype=int)

    def try_replace(i, cand):
        val = objective.value_positions(cand[None, :])[0]
        if val > values[i]:
            x[i] = cand
            values[i] = val
            trials[i] = 0
        else:
            trials[i] += 1

    def phase(sources):
        count = len(sources)
        dims = rng.integers(n, size=count)
        others = rng.integers(n_sources - 1, size=count)
        phis = rng.uniform(-1.0, 1.0, count)
        for m, i in enumerate(sources):
            j = dims[m]
            partner = int(others[m])
            if partner >= i:
                partner += 1
            cand = x[i].copy()
            cand[j] = fold_into_box(cand[j] + phis[m] * (cand[j] - x[partner][j]))
            try_replace(i, cand)

    for _ in range(iterations):
        phase(range(n_sources))

        weights = np.maximum(values - values.min(), bee.SELECTION_FLOOR)
        cum = np.cumsum(weights)
        picks = rng.random(n_onlookers)
        phase(
            [
                min(int(np.searchsorted(cum, u * cum[-1], side="right")), n_sources - 1)
                for u in picks
            ]
        )

        stale = int(np.argmax(trials))
        if trials[stale] > limit:
            scouts.append(stale)
            x[stale] = rng.random(n)
            values[stale] = objective.value_positions(x[stale][None, :])[0]
            trials[stale] = 0
        yield


def coverage_problem(n, k, seed, bonus):
    rng = np.random.default_rng(seed)
    profiles = sample_client_profiles(n, NoiseSpec(0.0), rng)
    mixes = rng.dirichlet(np.full(2, 0.5), size=n)
    obj = SubsetObjective(profiles=profiles, coverage_bonus=bonus, class_distributions=mixes)
    return SelectionProblem(n_clients=n, k=k, objective=obj)


def run_recording(problem, params, monkeypatch, reference=None):
    """optimize, plus the positions scored in each iteration, in order.

    Positions, not decoded rows, so that a move computed from stale state
    shows even when it decodes to the same subset.  Every scoring call is
    traced back to the positions decoded last: a call that scores m rows
    scores the first m of them, which is checked row by row.  With
    ``reference`` given, it replaces the algorithm module's ``run``.  The
    run is wrapped so that each iteration's end starts a new list.
    """
    scored = [[]]
    decoded = []
    module = importlib.import_module(f"swarmfl.swarm.{params.algorithm}")
    value_rows = BatchObjective.value_rows
    run = module.run if reference is None else reference

    def decoding(coords, k):
        decoded[:] = [np.array(coords, ndmin=2)]
        return decode_rows(coords, k)

    def recording(self, rows):
        coords = decoded.pop()[: len(rows)]
        assert np.array_equal(decode_rows(coords, self.k), rows)
        scored[-1].extend(map(tuple, coords.tolist()))
        return value_rows(self, rows)

    def stepping(*args):
        for _ in run(*args):
            scored.append([])
            yield

    with monkeypatch.context() as patch:
        patch.setattr(support, "decode_rows", decoding)
        if hasattr(module, "decode_rows"):
            patch.setattr(module, "decode_rows", decoding)
        patch.setattr(BatchObjective, "value_rows", recording)
        patch.setattr(module, "run", stepping)
        result = optimize(problem, params)
    return result, scored


def assert_same_result(got, expected):
    assert got.best_subset == expected.best_subset
    assert got.best_value.hex() == expected.best_value.hex()
    assert got.trace == expected.trace
    assert got.evaluations == expected.evaluations


# (problem, visual range, optimizer seed)
FISH_CASES = [
    (sampled_problem(10, 3, seed=51), fish.VISUAL, 0),
    (coverage_problem(12, 4, seed=52, bonus=0.3), fish.VISUAL, 1),
    (sampled_problem(25, 10, seed=53), fish.VISUAL, 2),
    (sampled_problem(50, 20, seed=54), fish.VISUAL, 3),
]
# Fish see neighbours here.  The last case reaches the swarm-to-centre drift;
# in the one before it a drift lands within sight of a fish that was clear.
DENSE_FISH_CASES = [
    (sampled_problem(2, 1, seed=55), fish.VISUAL, 4),
    (sampled_problem(3, 2, seed=56), fish.VISUAL, 5),
    (sampled_problem(5, 2, seed=57), fish.VISUAL, 6),
    (sampled_problem(10, 3, seed=58), 1.0, 7),
    (sampled_problem(10, 3, seed=82), 0.7, 2),
    (coverage_problem(8, 4, seed=62, bonus=0.5), 1.0, 8),
]


def test_fish_lockstep_matches_per_fish_loop(monkeypatch):
    # Lockstep prey reorders evaluations within an iteration, so each
    # iteration's scored positions are compared as a multiset.
    fired = {"follow": 0, "centre": 0, "crowded": 0}
    reference = functools.partial(reference_fish_run, fired=fired)
    for problem, visual, seed in FISH_CASES + DENSE_FISH_CASES:
        params = OptimizerParams("fish", population=20, iterations=60, seed=seed)
        # fish.run and reference_fish_run both read fish.VISUAL when called.
        monkeypatch.setattr(fish, "VISUAL", visual)
        got, got_scored = run_recording(problem, params, monkeypatch)
        expected, expected_scored = run_recording(problem, params, monkeypatch, reference)
        assert_same_result(got, expected)
        assert [sorted(it) for it in got_scored] == [sorted(it) for it in expected_scored]
    # The dense cases must reach every sequential branch, not only prey.
    assert min(fired.values()) > 0, fired


@pytest.mark.parametrize("population", [2, 3, 7, 20])
def test_bee_runs_match_per_bee_loop(population, monkeypatch):
    problems = [
        sampled_problem(10, 3, seed=61),
        coverage_problem(12, 4, seed=62, bonus=0.3),
        sampled_problem(25, 10, seed=63),
        sampled_problem(3, 2, seed=64),
        sampled_problem(50, 20, seed=65),
        sampled_problem(2, 1, seed=66),
    ]
    scouts = []
    reference = functools.partial(reference_bee_run, scouts=scouts)
    for seed, problem in enumerate(problems):
        params = OptimizerParams("bee", population=population, iterations=60, seed=seed)
        got, got_scored = run_recording(problem, params, monkeypatch)
        expected, expected_scored = run_recording(problem, params, monkeypatch, reference)
        assert_same_result(got, expected)
        assert got_scored == expected_scored
    # The scout's draw follows both phases' blocks, so it must come into play.
    assert scouts


# (bound, count) blocks drawn by one array-bound call.  Bound 1 draws nothing,
# 3_000_000_000 rejects often in the 32-bit sampler, 2**32 - 1 is its largest
# bound below the full-word path, and a count of 0 is an empty phase.
DRAW_BLOCKS = [
    [(10, 10), (9, 10)],
    [(25, 10), (9, 10)],
    [(5, 2), (1, 2)],
    [(1, 3), (5, 3), (1, 3)],
    [(3_000_000_000, 40), (2**32 - 1, 40)],
    [(2**32 - 1, 7), (3, 7), (3_000_000_000, 7)],
    [(25, 0), (9, 0)],
    [],
]


@pytest.mark.parametrize("blocks", DRAW_BLOCKS)
def test_array_bound_integers_equal_consecutive_scalar_calls(blocks):
    for seed in range(20):
        one, many = np.random.default_rng(seed), np.random.default_rng(seed)
        bounds = np.array([b for b, c in blocks for _ in range(c)], dtype=np.int64)
        got = one.integers(bounds)
        expected = np.concatenate(
            [many.integers(b, size=c) for b, c in blocks] + [np.zeros(0, dtype=np.int64)]
        )
        message = (
            "bee's draw block relies on rng.integers(array of bounds) giving the values"
            " and generator state of consecutive scalar-bound calls"
        )
        assert got.dtype == expected.dtype, message
        assert np.array_equal(got, expected), message
        assert one.bit_generator.state == many.bit_generator.state, message


def test_iwd_matches_vector_drop_loop(monkeypatch):
    # Erosion on plain floats and per-path weight refreshes must give exactly
    # the results of the vector drop loop.
    problems = [
        sampled_problem(10, 3, seed=71),
        coverage_problem(12, 4, seed=72, bonus=0.3),
        sampled_problem(25, 10, seed=73),
        sampled_problem(50, 20, seed=74),
        sampled_problem(3, 3, seed=75),
        sampled_problem(2, 1, seed=76),
    ]
    for problem in problems:
        for seed in range(4):
            params = OptimizerParams("iwd", seed=seed)
            got = optimize(problem, params)
            with monkeypatch.context() as patch:
                patch.setattr(iwd, "run", reference_iwd_run)
                expected = optimize(problem, params)
            assert_same_result(got, expected)


def reference_gwo_run(n, k, population, iterations, objective, rng):
    # One leader at a time: two draws and one pull each, summed into zeros.
    # Positions are decoded through the gwo module, where the test records them.
    decode_rows = gwo.decode_rows
    x = rng.random((population, n))
    rows = decode_rows(x, k)
    values = objective.value_rows(rows)
    for t in range(iterations):
        a = 2.0 - 2.0 * t / iterations
        order = np.argsort(-values, kind="stable")
        leader_idx = []
        seen = set()
        for j in order:
            key = tuple(rows[j])
            if key not in seen:
                seen.add(key)
                leader_idx.append(j)
            if len(leader_idx) == 3:
                break
        while len(leader_idx) < 3:
            leader_idx.append(leader_idx[-1])
        pulled = np.zeros_like(x)
        for li in leader_idx:
            leader = x[li]
            r1 = rng.random((population, n))
            r2 = rng.random((population, n))
            big_a = 2.0 * a * r1 - a
            big_c = 2.0 * r2
            pulled += leader - big_a * np.abs(big_c * leader - x)
        x = fold_into_box(pulled / 3.0)
        rows = decode_rows(x, k)
        values = objective.value_rows(rows)
        yield


def reference_bat_run(n, k, population, iterations, objective, rng):
    # Flights and walks scored in two calls, flights first; the clamp, the
    # step and the bounce as three separate steps.
    fmax = bat.FREQ_MAX
    alpha = bat.LOUDNESS_DECAY
    r0 = bat.PULSE_RATE
    gamma = bat.PULSE_GROWTH
    walk = bat.WALK_SCALE
    vmax = bat.VELOCITY_CLAMP
    x = rng.random((population, n))
    v = rng.uniform(-vmax, vmax, (population, n))
    loud = np.full(population, bat.LOUDNESS)
    values = objective.value_positions(x)
    b = int(np.argmax(values))
    best_x = x[b].copy()
    best_val = float(values[b])
    for t in range(iterations):
        pulse = r0 * (1.0 - np.exp(-gamma * t))
        freq = rng.uniform(0.0, fmax, population)
        v = np.clip(v + freq[:, None] * (x - best_x), -vmax, vmax)
        raw = x + v
        out = (raw < 0.0) | (raw > 1.0)
        flight, v = fold_into_box(raw), np.where(out, -v, v)
        walk_gate = rng.random(population) > pulse
        eps = rng.normal(0.0, 1.0, (population, n))
        local = fold_into_box(best_x + walk * eps * loud.mean())
        flight_values = objective.value_positions(flight)
        local_values = objective.value_positions(local)
        cand = np.where(walk_gate[:, None], local, flight)
        cand_values = np.where(walk_gate, local_values, flight_values)
        accept = (rng.random(population) < loud) & (cand_values > values)
        x[accept] = cand[accept]
        values[accept] = cand_values[accept]
        loud[accept] *= alpha
        b = int(np.argmax(values))
        if values[b] > best_val:
            best_x = x[b].copy()
            best_val = float(values[b])
        yield


def reference_pso_run(n, k, population, iterations, objective, rng, kicks):
    # One expression for the velocity, a full uniform block for the kick,
    # np.clip, then the bounce as a mask of the steps that left the box.
    vmax = pso.VELOCITY_CLAMP
    x = rng.random((population, n))
    v = rng.uniform(-vmax, vmax, (population, n))
    values = objective.value_positions(x)
    pbest = x.copy()
    pbest_val = values.copy()
    g = int(np.argmax(values))
    gbest = x[g].copy()
    gbest_val = float(values[g])
    for _ in range(iterations):
        r1 = rng.random((population, n))
        r2 = rng.random((population, n))
        v = pso.INERTIA * v + pso.COGNITIVE * r1 * (pbest - x) + pso.SOCIAL * r2 * (gbest - x)
        mask = rng.random(population) < pso.CRAZINESS
        kicks.append(int(mask.sum()))
        fresh = rng.uniform(-vmax, vmax, (population, n))
        v = np.where(mask[:, None], fresh, v)
        v = np.clip(v, -vmax, vmax)
        raw = x + v
        out = (raw < 0.0) | (raw > 1.0)
        x, v = fold_into_box(raw), np.where(out, -v, v)
        values = objective.value_positions(x)
        improved = values > pbest_val
        pbest[improved] = x[improved]
        pbest_val[improved] = values[improved]
        g = int(np.argmax(pbest_val))
        if pbest_val[g] > gbest_val:
            gbest = pbest[g].copy()
            gbest_val = float(pbest_val[g])
        yield


def reference_cuckoo_run(n, k, population, iterations, objective, rng):
    # Lévy candidates and rebuilt nests scored in two calls, the nests drawn
    # after greedy replacement; improved nests taken by boolean indexing.
    n_abandon = int(np.floor(cuckoo.ABANDON_FRACTION * population + 0.5))
    x = rng.random((population, n))
    values = objective.value_positions(x)
    b = int(np.argmax(values))
    best_x = x[b].copy()
    best_val = float(values[b])
    for _ in range(iterations):
        steps = levy_sample(cuckoo.LEVY_BETA, rng, (population, n))
        cand = fold_into_box(x + cuckoo.STEP_SCALE * steps * (x - best_x))
        cand_values = objective.value_positions(cand)
        improved = cand_values > values
        x[improved] = cand[improved]
        values[improved] = cand_values[improved]
        worst = np.argsort(values, kind="stable")[:n_abandon]
        x[worst] = rng.random((n_abandon, n))
        values[worst] = objective.value_positions(x[worst])
        b = int(np.argmax(values))
        if values[b] > best_val:
            best_x = x[b].copy()
            best_val = float(values[b])
        yield


# 3/3 has a single subset and population 2 only two wolves, so both reach
# gwo's leader padding.
FUSED_CASES = [
    sampled_problem(10, 3, seed=91),
    coverage_problem(12, 4, seed=92, bonus=0.3),
    sampled_problem(25, 10, seed=93),
    sampled_problem(50, 20, seed=94),
    sampled_problem(3, 3, seed=95),
    sampled_problem(2, 1, seed=96),
]


def run_recording_gwo(problem, params, monkeypatch, reference=None):
    """optimize, plus every position gwo decodes, so ulp differences show."""
    decoded = []

    def recording(coords, k):
        decoded.append(coords.tolist())
        return decode_rows(coords, k)

    with monkeypatch.context() as patch:
        patch.setattr(gwo, "decode_rows", recording)
        if reference is not None:
            patch.setattr(gwo, "run", reference)
        result = optimize(problem, params)
    return result, decoded


@pytest.mark.parametrize("population", [2, 3, 20])
def test_gwo_matches_per_leader_loop(population, monkeypatch):
    for seed, problem in enumerate(FUSED_CASES):
        params = OptimizerParams("gwo", population=population, seed=seed)
        got, got_decoded = run_recording_gwo(problem, params, monkeypatch)
        expected, expected_decoded = run_recording_gwo(
            problem, params, monkeypatch, reference_gwo_run
        )
        assert_same_result(got, expected)
        assert got_decoded == expected_decoded


def test_bat_matches_two_call_loop(monkeypatch):
    for seed, problem in enumerate(FUSED_CASES):
        params = OptimizerParams("bat", seed=seed)
        got, got_scored = run_recording(problem, params, monkeypatch)
        expected, expected_scored = run_recording(problem, params, monkeypatch, reference_bat_run)
        assert_same_result(got, expected)
        assert got_scored == expected_scored


@pytest.mark.parametrize("population", [2, 3, 20])
def test_pso_matches_clip_and_uniform_loop(population, monkeypatch):
    kicks = []
    reference = functools.partial(reference_pso_run, kicks=kicks)
    for seed, problem in enumerate(FUSED_CASES):
        params = OptimizerParams("pso", population=population, seed=seed)
        got, got_scored = run_recording(problem, params, monkeypatch)
        expected, expected_scored = run_recording(problem, params, monkeypatch, reference)
        assert_same_result(got, expected)
        assert got_scored == expected_scored
    # The kicked rows must come into play, not only the velocity update.
    assert sum(kicks) > 0


@pytest.mark.parametrize("population", [2, 3, 7, 20])
def test_cuckoo_matches_two_call_loop(population, monkeypatch):
    # Populations 2 and 3 rebuild one nest, 7 two and 20 five.  The 10/3, 3/3
    # and 2/1 cases stop at the certificate; the 12/4 coverage case cannot.
    stopped = 0
    for seed, problem in enumerate(FUSED_CASES):
        params = OptimizerParams("cuckoo", population=population, seed=seed)
        got, got_scored = run_recording(problem, params, monkeypatch)
        expected, expected_scored = run_recording(
            problem, params, monkeypatch, reference_cuckoo_run
        )
        assert_same_result(got, expected)
        assert got_scored == expected_scored
        stopped += len(got_scored) - 1 < params.iterations
    assert stopped > 0


@pytest.mark.parametrize(
    "name, calls_per_iteration", [("pso", 1), ("bat", 1), ("cuckoo", 1), ("fish", 4), ("bee", 3)]
)
def test_batched_selectors_make_few_calls(name, calls_per_iteration, monkeypatch):
    calls = []
    original = BatchObjective.value_rows

    def counting(self, rows):
        calls.append(len(rows))
        return original(self, rows)

    monkeypatch.setattr(BatchObjective, "value_rows", counting)
    params = OptimizerParams(name, seed=65)
    optimize(sampled_problem(25, 10, seed=65), params)
    assert len(calls) <= 1 + calls_per_iteration * params.iterations
