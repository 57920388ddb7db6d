"""Release gate: one test per shipped guarantee, each printing an ACCEPTANCE line.

These are the slow, end-to-end checks (statistical trends, golden files,
exhaustive-oracle comparisons).  Fine-grained behavior lives in the per-module
test files.
"""

import itertools
import time

import numpy as np
import pytest

from swarmfl.datagen import (
    DatasetSpec,
    NoiseSpec,
    ParticipationSchedule,
    dirichlet_partition,
    sample_client_profiles,
)
from swarmfl.experiments import ExperimentConfig, emit_report, run_experiment
from swarmfl.fitness import (
    ClientProfile,
    FitnessWeights,
    SubsetObjective,
    client_fitness,
    greedy_topk,
    subset_objective,
)
from swarmfl.flsim import (
    ModelParams,
    SessionConfig,
    build_clients,
    evaluate_global,
    fed_avg,
    local_train,
    logistic_loss,
    loss_gradient,
    run_session,
    selection_size,
)
from swarmfl.swarm import ALGORITHM_NAMES, OptimizerParams, SelectionProblem, optimize

PROBLEM_SEEDS = [5000 + i for i in range(100)]
OPTIMIZER_SEEDS = [9000 + i for i in range(100)]
EFFICACY_SEEDS = [3000 + s for s in range(30)]
NOISE_SEEDS = [4000 + s for s in range(30)]


def announce(capsys, number, ok, detail=""):
    with capsys.disabled():
        line = f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'}"
        if detail:
            line += f"  ({detail})"
        print(line, flush=True)


# --- 1: optimizer exactness against exhaustive search ---------------------------


@pytest.fixture(scope="module")
def exactness_instances():
    instances = []
    for seed in PROBLEM_SEEDS:
        profiles = sample_client_profiles(10, NoiseSpec(0.0), np.random.default_rng(seed))
        objective = SubsetObjective(profiles=profiles)
        best = max(
            itertools.combinations(range(10), 3),
            key=lambda s: subset_objective(objective, s),
        )
        instances.append((objective, frozenset(best)))
    return instances


def test_acceptance_1_optimizer_exactness(exactness_instances, capsys):
    start = time.monotonic()
    matches = {}
    for name in ALGORITHM_NAMES:
        count = 0
        for i, (objective, best) in enumerate(exactness_instances):
            problem = SelectionProblem(n_clients=10, k=3, objective=objective)
            params = OptimizerParams(
                name, population=20, iterations=100, seed=OPTIMIZER_SEEDS[i]
            )
            if optimize(problem, params).best_subset == best:
                count += 1
        matches[name] = count
    greedy_count = sum(
        greedy_topk(objective, 3) == best for objective, best in exactness_instances
    )
    elapsed = time.monotonic() - start

    ok = (
        all(count >= 95 for count in matches.values())
        and matches["gwo"] == 100
        and matches["pso"] == 100
        and greedy_count == 100
        and elapsed < 60.0
    )
    detail = (
        ", ".join(f"{name} {count}" for name, count in matches.items())
        + f", greedy {greedy_count}, {elapsed:.1f}s"
    )
    announce(capsys, 1, ok, detail)
    for name, count in matches.items():
        assert count >= 95, f"{name} matched only {count}/100 exhaustive optima"
    assert matches["gwo"] == 100
    assert matches["pso"] == 100
    assert greedy_count == 100
    assert elapsed < 60.0, f"exactness sweep took {elapsed:.1f}s"


# --- 2: composite fitness formula ------------------------------------------------


def test_acceptance_2_fitness_examples_and_monotonicity(capsys):
    acc_only = ClientProfile(0.75, 0.9, 0.2, 0.75)
    balanced = ClientProfile(0.9, 0.1, 0.5, 0.9)
    fast = ClientProfile(0.5, 0.2, 0.1, 0.5)
    examples_ok = (
        client_fitness(acc_only, FitnessWeights(1.0, 0.0, 0.0)) == 0.75
        and client_fitness(balanced, FitnessWeights(1.0, 1.0, 0.1)) == 1.0
        and client_fitness(fast, FitnessWeights(1.0, 1.0, 0.1)) == 1.3
    )

    rng = np.random.default_rng(2024)
    pairs_ok = True
    for _ in range(1000):
        w = FitnessWeights(*(rng.uniform(0.05, 2.0, 3)))
        det = rng.uniform(0.5, 1.0)
        fpr = rng.uniform(0.0, 0.2)
        rt = rng.uniform(0.1, 1.0)
        reported = rng.uniform(0.0, 1.0)

        def build(reported=reported, fpr=fpr, rt=rt):
            return ClientProfile(det, fpr, rt, reported)

        field = rng.integers(0, 3)
        if field == 0:
            lo, hi = sorted(rng.uniform(0.0, 1.0, 2))
            worse, better = build(reported=lo), build(reported=hi)
        elif field == 1:
            lo, hi = sorted(rng.uniform(0.0, 1.0, 2))
            worse, better = build(fpr=hi), build(fpr=lo)
        else:
            lo, hi = sorted(rng.uniform(0.05, 1.0, 2))
            worse, better = build(rt=hi), build(rt=lo)
        if worse == better:
            continue
        if not client_fitness(better, w) > client_fitness(worse, w):
            pairs_ok = False
            break

    ok = examples_ok and pairs_ok
    announce(capsys, 2, ok, f"examples {'exact' if examples_ok else 'WRONG'}, "
                            f"1000 pairs {'ordered' if pairs_ok else 'violated'}")
    assert examples_ok
    assert pairs_ok


# --- 3: aggregation and metric oracles --------------------------------------------


def test_acceptance_3_fedavg_and_metrics_oracles(capsys):
    a = ModelParams(weights=np.array([0.0, 0.0]), bias=0.0)
    b = ModelParams(weights=np.array([1.0, 1.0]), bias=1.0)
    avg = fed_avg([(a, 1), (b, 3)])
    fedavg_ok = (
        np.all(np.abs(avg.weights - 0.75) <= 1e-12)
        and abs(avg.bias - 0.75) <= 1e-12
    )
    same = fed_avg([(b, 2), (b, 7)])
    fedavg_ok = fedavg_ok and np.all(np.abs(same.weights - b.weights) <= 1e-12)
    lone = fed_avg([(b, 5)])
    fedavg_ok = fedavg_ok and np.all(np.abs(lone.weights - b.weights) <= 1e-12)

    rng = np.random.default_rng(333)
    model = ModelParams(weights=np.array([1.0]), bias=0.0)
    metrics_ok = True
    for _ in range(1000):
        n = int(rng.integers(1, 60))
        preds = rng.integers(0, 2, n).astype(bool)
        labels = rng.integers(0, 2, n)
        features = np.where(preds, 1.0, -1.0)[:, None]
        from swarmfl.datagen import LabeledDataset

        got = evaluate_global(model, LabeledDataset(features=features, labels=labels))

        tp = fp = fn = tn = 0
        for p, y in zip(preds, labels):
            if p and y == 1:
                tp += 1
            elif p and y == 0:
                fp += 1
            elif not p and y == 1:
                fn += 1
            else:
                tn += 1
        accuracy = (tp + tn) / n
        recall = tp / (tp + fn) if tp + fn else 1.0
        precision = tp / (tp + fp) if tp + fp else 1.0
        f1 = 0.0 if precision + recall == 0 else 2 * precision * recall / (precision + recall)
        if (
            abs(got.accuracy - accuracy) > 1e-12
            or abs(got.recall - recall) > 1e-12
            or abs(got.f1 - f1) > 1e-12
        ):
            metrics_ok = False
            break

    ok = fedavg_ok and metrics_ok
    announce(capsys, 3, ok, f"fed_avg {'exact' if fedavg_ok else 'WRONG'}, "
                            f"1000 metric sets {'matched' if metrics_ok else 'MISMATCH'}")
    assert fedavg_ok
    assert metrics_ok


# --- 4: analytic gradient vs finite differences ------------------------------------


def test_acceptance_4_gradient_check(capsys):
    from swarmfl.datagen import LabeledDataset

    rng = np.random.default_rng(444)
    h = 1e-5
    worst = 0.0
    for _ in range(100):
        d = int(rng.integers(1, 8))
        n = int(rng.integers(1, 30))
        data = LabeledDataset(
            features=rng.standard_normal((n, d)), labels=rng.integers(0, 2, n)
        )
        params = ModelParams(
            weights=rng.standard_normal(d), bias=float(rng.standard_normal())
        )
        grad_w, grad_b = loss_gradient(params, data)
        analytic = np.append(grad_w, grad_b)

        numeric = np.empty(d + 1)
        for j in range(d):
            bump = np.zeros(d)
            bump[j] = h
            up = logistic_loss(ModelParams(params.weights + bump, params.bias), data)
            dn = logistic_loss(ModelParams(params.weights - bump, params.bias), data)
            numeric[j] = (up - dn) / (2 * h)
        up = logistic_loss(ModelParams(params.weights, params.bias + h), data)
        dn = logistic_loss(ModelParams(params.weights, params.bias - h), data)
        numeric[d] = (up - dn) / (2 * h)

        scale = np.maximum(np.maximum(np.abs(numeric), np.abs(analytic)), 1e-8)
        worst = max(worst, float(np.max(np.abs(numeric - analytic) / scale)))

    ok = worst < 1e-5
    announce(capsys, 4, ok, f"max relative error {worst:.2e}")
    assert ok, f"gradient mismatch: max relative error {worst:.2e}"


# --- 5: dirichlet partition statistics ----------------------------------------------


def test_acceptance_5_dirichlet_statistics(capsys):
    concentrated = dirichlet_partition(1e6, 1000, 2, np.random.default_rng(555))
    uniform_ok = all(abs(float(p[0]) - 0.5) <= 0.01 for p in concentrated)
    skewed = dirichlet_partition(0.1, 1000, 2, np.random.default_rng(556))
    mean_max = float(np.mean([p.max() for p in skewed]))
    skew_ok = mean_max > 0.8

    ok = uniform_ok and skew_ok
    announce(capsys, 5, ok, f"alpha=1e6 {'uniform' if uniform_ok else 'SPREAD'}, "
                            f"alpha=0.1 mean max {mean_max:.3f}")
    assert uniform_ok
    assert skew_ok


# --- 6: fitness-guided selection vs uniform-random selection -------------------------


def _final_accuracy_guided(seed):
    config = SessionConfig(
        schedule=ParticipationSchedule("fixed", 25, 25, 15),
        optimizer=OptimizerParams("gwo", seed=0),
    )
    return run_session(config, seed)[-1].metrics.accuracy


def _final_accuracy_random(seed):
    """Same pipeline, same rng discipline, but the round picks clients uniformly."""
    config = SessionConfig(schedule=ParticipationSchedule("fixed", 25, 25, 15))
    rng = np.random.default_rng(seed)
    clients, test = build_clients(config, rng)
    params = ModelParams.zeros(config.dataset.n_features)
    k = selection_size(config.select_fraction, 25)
    for _ in range(15):
        round_seed = int(rng.integers(0, 2**64, dtype=np.uint64))
        pick = np.random.default_rng(round_seed)
        chosen = sorted(int(i) for i in pick.choice(25, size=k, replace=False))
        updates = []
        for i in chosen:
            trained = local_train(params, clients[i].data, config.lr, config.batch_size, rng)
            updates.append((trained, len(clients[i].data)))
        params = fed_avg(updates)
    return evaluate_global(params, test).accuracy


def test_acceptance_6_selection_beats_random(capsys):
    start = time.monotonic()
    guided = float(np.mean([_final_accuracy_guided(s) for s in EFFICACY_SEEDS]))
    random_pick = float(np.mean([_final_accuracy_random(s) for s in EFFICACY_SEEDS]))
    elapsed = time.monotonic() - start
    gap = guided - random_pick

    ok = gap >= 0.02 and elapsed < 300.0
    announce(
        capsys, 6, ok,
        f"guided {guided:.4f}, random {random_pick:.4f}, gap {gap:+.4f} "
        f"(need >= +0.02), {elapsed:.0f}s",
    )
    assert elapsed < 300.0, f"efficacy comparison took {elapsed:.0f}s"
    assert gap >= 0.02, (
        f"guided selection gained only {gap:+.4f} accuracy over uniform-random "
        f"(guided {guided:.4f} vs random {random_pick:.4f}; needs >= +0.02)"
    )


# --- 7: reporting-noise degradation, per algorithm ------------------------------------


def test_acceptance_7_noise_degrades_gracefully(capsys):
    chains = {}
    all_ok = True
    for name in ALGORITHM_NAMES:
        means = []
        for level in (0.0, 0.25, 0.5):
            finals = []
            for seed in NOISE_SEEDS:
                config = SessionConfig(
                    schedule=ParticipationSchedule("fixed", 25, 25, 10),
                    noise=NoiseSpec(level),
                    optimizer=OptimizerParams(name, seed=0),
                )
                finals.append(run_session(config, seed)[-1].metrics.accuracy)
            means.append(float(np.mean(finals)))
        clean, mid, noisy = means
        chain_ok = (noisy <= mid + 0.01) and (mid + 0.01 <= clean + 0.02)
        chains[name] = (clean, mid, noisy, chain_ok)
        all_ok = all_ok and chain_ok

    bad = [name for name, (_, _, _, chain_ok) in chains.items() if not chain_ok]
    announce(capsys, 7, all_ok,
             "all 9 algorithms in tolerance" if all_ok else f"violations: {bad}")
    for name, (clean, mid, noisy, chain_ok) in chains.items():
        assert chain_ok, (
            f"{name}: accuracy chain {clean:.4f} (clean) / {mid:.4f} (0.25) / "
            f"{noisy:.4f} (0.5) violates the degradation tolerances"
        )


# --- 8: golden-file determinism of the reporting pipeline ------------------------------


def test_acceptance_8_reports_are_byte_identical(tmp_path, capsys):
    config = ExperimentConfig(experiment="noise", runs=2)
    first = emit_report(run_experiment(config, parallel=1), tmp_path / "a")
    second = emit_report(run_experiment(config, parallel=1), tmp_path / "b")
    threaded = emit_report(run_experiment(config, parallel=4), tmp_path / "c")

    summary_a = (first / "summary.csv").read_bytes()
    rerun_ok = summary_a == (second / "summary.csv").read_bytes()
    parallel_ok = summary_a == (threaded / "summary.csv").read_bytes()

    ok = rerun_ok and parallel_ok
    announce(capsys, 8, ok, f"rerun {'identical' if rerun_ok else 'DIFFERS'}, "
                            f"threaded {'identical' if parallel_ok else 'DIFFERS'}")
    assert rerun_ok
    assert parallel_ok


# --- 9: dynamic participation schedules hit their endpoints -----------------------------


def test_acceptance_9_dynamic_schedule_contract(capsys):
    growing = SessionConfig(
        schedule=ParticipationSchedule("increasing", 5, 25, 20),
        optimizer=OptimizerParams("gwo", seed=0),
    )
    shrinking = SessionConfig(
        schedule=ParticipationSchedule("decreasing", 25, 5, 20),
        optimizer=OptimizerParams("gwo", seed=0),
    )
    up = [r.available for r in run_session(growing, seed=99)]
    down = [r.available for r in run_session(shrinking, seed=99)]

    up_ok = (
        up[0] == 5
        and up[-1] == 25
        and all(b >= a for a, b in zip(up, up[1:]))
        and len(up) == 20
    )
    down_ok = (
        down[0] == 25
        and down[-1] == 5
        and all(b <= a for a, b in zip(down, down[1:]))
        and len(down) == 20
    )

    ok = up_ok and down_ok
    announce(capsys, 9, ok, f"increasing {up[0]}->{up[-1]}, decreasing {down[0]}->{down[-1]}")
    assert up_ok, f"increasing schedule produced {up}"
    assert down_ok, f"decreasing schedule produced {down}"
