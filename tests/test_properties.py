"""Properties over generated inputs: strict parsing, tiny grids that run clean,
the selectors' invariants, searches stopped at a certified optimum that return
the full search's result, cohort training that matches one-client training,
and FedAvg that matches the member-by-member sum.

Runs are derandomized, with no example database and fixed example counts,
so the suite sees the same inputs every time.
"""

import importlib
import os
import warnings

import numpy as np
import pytest
from test_flsim import random_dataset, reference_local_train

import swarmfl
from swarmfl.errors import ConfigError
from swarmfl.experiments import EXPERIMENTS, ExperimentConfig, parse_config, run_experiment
from swarmfl.fitness import (
    ClientProfile,
    FitnessWeights,
    SubsetObjective,
    client_fitness,
    subset_objective,
)
from swarmfl.flsim import ModelParams, _train_stack, fed_avg
from swarmfl.swarm import ALGORITHM_NAMES, OptimizerParams, SelectionProblem, bee, optimize
from swarmfl.swarm.support import BatchObjective, decode_rows

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

SETTINGS = dict(derandomize=True, database=None, deadline=None)
PACKAGE = os.path.dirname(os.path.abspath(swarmfl.__file__))

NUMBERS = st.integers(-(10**30), 10**30) | st.floats(allow_nan=True, allow_infinity=True)
JSON = st.recursive(
    st.none() | st.booleans() | NUMBERS | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=8,
)


def near(value):
    """Mostly a value of the key's own type, sometimes any JSON at all."""
    return value | JSON


def section(**keys):
    return st.fixed_dictionaries({}, optional={key: near(value) for key, value in keys.items()})


# Values of roughly each key's type, so generated configs get past the type
# checks to the range and family checks.
KEYS = {
    "experiment": st.sampled_from(EXPERIMENTS + ("ablation",)),
    "algorithms": st.lists(st.sampled_from(ALGORITHM_NAMES + ("annealing",)), max_size=3),
    "client_counts": st.lists(st.integers(-1, 30), max_size=3),
    "epochs": st.integers(-1, 20),
    "schedule_kind": st.sampled_from(["increasing", "decreasing", "sideways"]),
    "noise_levels": st.lists(NUMBERS, max_size=3),
    "runs": st.integers(-1, 3),
    "base_seed": st.integers(-1, 2**64),
    "select_fraction": NUMBERS,
    "coverage_bonus": NUMBERS,
    "lr": NUMBERS,
    "batch_size": st.integers(-1, 64),
    "partition": section(mode=st.sampled_from(["iid", "dirichlet", "zipf"]), alpha=NUMBERS),
    "weights": section(w1=NUMBERS, w2=NUMBERS, w3=NUMBERS),
    "optimizer": section(population=st.integers(-1, 30), iterations=st.integers(-1, 30)),
    "dataset": section(
        n_train_per_client=st.integers(-1, 300),
        n_test=st.integers(-1, 300),
        n_features=st.integers(-1, 20),
        class_separation=NUMBERS,
    ),
}
CONFIGS = st.builds(
    lambda unknown, known: {**unknown, **known},
    st.dictionaries(st.text(max_size=8), JSON, max_size=2),
    st.fixed_dictionaries({}, optional={key: near(value) for key, value in KEYS.items()}),
)


@hypothesis.settings(max_examples=300, **SETTINGS)
@hypothesis.given(CONFIGS | JSON)
def test_parse_config_returns_a_config_or_raises_config_error(raw):
    try:
        config = parse_config(raw)
    except ConfigError:
        return
    assert isinstance(config, ExperimentConfig)


POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
NONNEGATIVE = st.floats(min_value=0.0, allow_infinity=False)


def mostly_at_most(limit, exclude_min=False):
    """A float from 0 up to ``limit`` about 19 times in 20, else any finite one from 0.

    SessionConfig and FitnessWeights take at most 1e6 for five keys; keeping
    each within it only half the time would leave one config in 32 valid.
    """
    within = st.floats(0.0, limit, exclude_min=exclude_min)
    anywhere = POSITIVE if exclude_min else NONNEGATIVE
    return st.integers(0, 19).flatmap(lambda i: anywhere if i == 0 else within)


@st.composite
def tiny_configs(draw):
    """A config at tiny sizes whose real numbers range over all finite floats.

    At most 6 clients, 3 epochs, population 4 and 3 iterations; only the
    dynamic family's ramp is fixed, at 5 to 25 clients.  A key with an upper
    limit is drawn mostly within it, so that most examples validate.
    """
    experiment = draw(st.sampled_from(EXPERIMENTS))
    counts = st.lists(st.integers(2, 6), min_size=1, max_size=2, unique=True)
    raw = {
        "experiment": experiment,
        "algorithms": draw(
            st.lists(st.sampled_from(ALGORITHM_NAMES), min_size=1, max_size=2, unique=True)
        ),
        "epochs": draw(st.integers(1, 3)),
        "runs": draw(st.integers(1, 2)),
        "base_seed": draw(st.integers(0, 2**64 - 1)),
        "select_fraction": draw(st.floats(0.0, 1.0, exclude_min=True)),
        "coverage_bonus": draw(mostly_at_most(1e6)),
        "lr": draw(mostly_at_most(1e6, exclude_min=True)),
        "batch_size": draw(st.integers(1, 40)),
        "weights": {w: draw(mostly_at_most(1e6)) for w in ("w1", "w2", "w3")},
        "optimizer": {"population": draw(st.integers(2, 4)), "iterations": draw(st.integers(1, 3))},
        "dataset": {
            "n_train_per_client": draw(st.integers(1, 12)),
            "n_test": draw(st.integers(1, 20)),
            "n_features": draw(st.integers(1, 4)),
            # DatasetSpec takes at most 20; wider values must fail validation.
            "class_separation": draw(st.floats(0.0, 20.0, exclude_min=True) | POSITIVE),
        },
    }
    if draw(st.booleans()):
        raw["partition"] = {"mode": draw(st.sampled_from(["iid", "dirichlet"])),
                            "alpha": draw(POSITIVE)}
    if experiment == "dynamic":
        if draw(st.booleans()):
            raw["schedule_kind"] = draw(st.sampled_from(["increasing", "decreasing"]))
    elif experiment == "noise":
        raw["client_counts"] = [draw(st.integers(2, 6))]
        raw["noise_levels"] = draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=2))
    else:
        raw["client_counts"] = draw(counts)
    return raw


@hypothesis.settings(max_examples=40, **SETTINGS)
@hypothesis.given(tiny_configs())
def test_a_config_that_validates_runs_without_a_warning(raw):
    try:
        config = parse_config(raw)
    except ConfigError:
        hypothesis.reject()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            run_experiment(config)
        except RuntimeError as exc:
            # A session may stop on a numeric blow-up, and on nothing else.
            assert isinstance(exc.__cause__, FloatingPointError), exc
    assert [w for w in caught if os.path.abspath(w.filename).startswith(PACKAGE)] == []


@st.composite
def selection_problems(draw):
    """A pool of at most 12 clients; half the problems carry a coverage bonus."""
    n = draw(st.integers(1, 12))
    profiles = [
        ClientProfile(
            det_accuracy=draw(st.floats(0.5, 1.0)),
            false_positive_rate=draw(st.floats(0.0, 0.2)),
            response_time=draw(st.floats(0.1, 1.0)),
            reported_accuracy=draw(st.floats(0.0, 1.0)),
        )
        for _ in range(n)
    ]
    weights = FitnessWeights(
        draw(st.floats(0.05, 2.0)), draw(st.floats(0.0, 2.0)), draw(st.floats(0.0, 2.0))
    )
    bonus, mixes = 0.0, None
    if draw(st.booleans()):
        bonus = draw(st.floats(0.0, 2.0, exclude_min=True))
        shares = draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n))
        mixes = [(p, 1.0 - p) for p in shares]
    objective = SubsetObjective(profiles, weights, bonus, mixes)
    return SelectionProblem(n_clients=n, k=draw(st.integers(1, n)), objective=objective)


@pytest.mark.parametrize("name", ALGORITHM_NAMES)
@hypothesis.settings(max_examples=25, **SETTINGS)
@hypothesis.given(
    problem=selection_problems(),
    population=st.integers(2, 6),
    iterations=st.integers(1, 5),
    seed=st.integers(0, 2**64 - 1),
)
def test_every_selector_keeps_its_invariants(name, problem, population, iterations, seed):
    result = optimize(problem, OptimizerParams(name, population, iterations, seed))
    n, k = problem.n_clients, problem.k
    assert len(result.best_subset) == k
    assert all(0 <= i < n for i in result.best_subset)
    factor = importlib.import_module(f"swarmfl.swarm.{name}").EVAL_FACTOR
    assert result.evaluations <= population * (iterations + 1) * factor
    assert len(result.trace) == iterations
    assert all(a <= b for a, b in zip(result.trace, result.trace[1:]))
    assert result.trace[-1] == result.best_value
    # test_swarm_support's bounds: the summation bound, plus 1e-12 with a bonus.
    objective = problem.objective
    members = [objective.profiles[i] for i in result.best_subset]
    fitness = [client_fitness(p, objective.weights) for p in members]
    bound = k * 2.0**-52 * np.abs(fitness).mean() + (1e-12 if objective.coverage_bonus else 0.0)
    assert abs(result.best_value - subset_objective(objective, result.best_subset)) <= bound


@st.composite
def tied_selection_problems(draw):
    """A separable pool of at most 12 clients whose fitness takes one of four values."""
    n = draw(st.integers(1, 12))
    scores = draw(st.lists(st.sampled_from([0.2, 0.4, 0.6, 0.8]), min_size=n, max_size=n))
    profiles = [ClientProfile(0.8, 0.0, 1.0, score) for score in scores]
    objective = SubsetObjective(profiles, FitnessWeights(1.0, 0.0, 0.0))
    return SelectionProblem(n_clients=n, k=draw(st.integers(1, n)), objective=objective)


@pytest.mark.parametrize("name", ALGORITHM_NAMES)
@hypothesis.settings(max_examples=25, **SETTINGS)
@hypothesis.given(
    problem=selection_problems() | tied_selection_problems(),
    population=st.integers(2, 6),
    iterations=st.integers(1, 12),
    seed=st.integers(0, 2**64 - 1),
)
def test_a_stopped_search_returns_the_full_search_result(
    name, problem, population, iterations, seed
):
    params = OptimizerParams(name, population, iterations, seed)
    stopped = optimize(problem, params)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(BatchObjective, "_certified_optimum", lambda self: None)
        full = optimize(problem, params)
    assert stopped.best_subset == full.best_subset
    assert stopped.best_value.hex() == full.best_value.hex()
    assert [v.hex() for v in stopped.trace] == [v.hex() for v in full.trace]
    assert stopped.evaluations <= full.evaluations


# Coordinates in the box, mostly from a few values, walls included, so that
# ties between coordinates are common.
COORDINATES = st.sampled_from([0.0, 0.25, 0.5, 1.0]) | st.floats(0.0, 1.0)


@st.composite
def bee_moves(draw):
    """A source's coordinates, its subset size and one move: (coords, k, j, v)."""
    n = draw(st.integers(1, 8))
    coords = draw(st.lists(COORDINATES, min_size=n, max_size=n))
    k = draw(st.sampled_from([1, n]) | st.integers(1, n))
    j = draw(st.integers(0, n - 1))
    v = draw(st.sampled_from(coords) | COORDINATES)
    return coords, k, j, v


@hypothesis.settings(max_examples=400, **SETTINGS)
@hypothesis.given(bee_moves())
def test_bee_change_rule_agrees_with_decoding(move):
    # bee decides from two rank keys, without decoding, whether a move changes
    # its source's subset; decode_rows is the definition.
    coords, k, j, v = move
    moved = list(coords)
    moved[j] = v
    before, after = decode_rows(np.array([coords, moved]), k)
    keys = bee.edges(coords, k)
    assert bee.changes(keys, j, coords[j], v) == (before.tolist() != after.tolist())


@st.composite
def cohorts(draw):
    """1-7 members of 1-80 samples each, all of one length, over 1-12 features."""
    d = draw(st.integers(1, 12))
    m = draw(st.integers(1, 80))
    k = draw(st.integers(1, 7))
    seed = draw(st.integers(0, 2**32 - 1))
    return [random_dataset(m, d, seed + i) for i in range(k)]


@hypothesis.settings(max_examples=60, **SETTINGS)
@hypothesis.given(
    cohort=cohorts(),
    batch_size=st.integers(1, 100),
    lr=st.floats(1e-3, 2.0),
    seed=st.integers(0, 2**32 - 1),
    zeros=st.booleans(),
)
def test_train_cohort_equals_training_each_member_alone(cohort, batch_size, lr, seed, zeros):
    # The stack run_round trains, shuffled by a block drawn as _draw_round
    # draws it, against the one-client loop on each member in turn.
    d = cohort[0].features.shape[1]
    draw = np.random.default_rng(seed)
    params = (
        ModelParams.zeros(d)
        if zeros
        else ModelParams(weights=draw.standard_normal(d), bias=float(draw.standard_normal()))
    )
    k, m = len(cohort), len(cohort[0])
    rng, mirror = np.random.default_rng(seed), np.random.default_rng(seed)
    orders = rng.permuted(np.broadcast_to(np.arange(m), (k, m)), axis=1)
    trained = _train_stack(params, cohort, orders, lr, batch_size)
    for row, data in zip(trained, cohort, strict=True):
        w, b = reference_local_train(params, data, lr, batch_size, mirror)
        assert np.array_equal(row[:-1], w)
        assert row[-1] == b
    assert rng.bit_generator.state == mirror.bit_generator.state


def reference_fed_avg(updates):
    """The member-by-member FedAvg loop that ``fed_avg`` must reproduce bit for bit."""
    w_acc = np.zeros(updates[0][0].weights.size)
    b_acc = 0.0
    total = 0
    for params, count in updates:
        w_acc += count * params.weights
        b_acc += count * params.bias
        total += count
    return w_acc / total, b_acc / total


@hypothesis.settings(max_examples=300, **SETTINGS)
@hypothesis.given(
    k=st.integers(1, 12),
    d=st.integers(0, 12),
    scale=st.sampled_from([1.0, 1e-300, 1e150, 1e300]),
    zero_column=st.integers(-1, 12),
    seed=st.integers(0, 2**32 - 1),
)
def test_fed_avg_equals_the_member_by_member_sum(k, d, scale, zero_column, seed):
    # Normal draws times the scale, about one entry in five -0.0, and maybe one
    # column (the bias when it is d) all -0.0.  Up to 1e300 in magnitude, 12
    # members of count up to 1000 cannot overflow.  At d = 0, a bias alone,
    # the stack is one column, which np.add.reduce would sum pairwise.
    rng = np.random.default_rng(seed)
    rows = rng.standard_normal((k, d + 1)) * scale
    rows[rng.random((k, d + 1)) < 0.2] = -0.0
    if zero_column <= d:
        rows[:, zero_column] = -0.0
    counts = rng.integers(1, 1001, k).tolist()
    updates = [
        (ModelParams(weights=row[:d], bias=float(row[d])), count)
        for row, count in zip(rows, counts)
    ]
    weights, bias = reference_fed_avg(updates)
    got = fed_avg(updates)
    assert got.weights.tobytes() == weights.tobytes()
    assert got.bias.hex() == bias.hex()
