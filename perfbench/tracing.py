"""Spans recorded around swarmfl's public functions, from outside the package.

``Tracer.install`` replaces each traced function with a wrapper at the name
its caller looks it up by, and ``uninstall`` puts the originals back.  Spans
are kept in memory and turned into per-layer metrics when the run ends.
``BatchObjective.value_rows`` is called thousands of times per ``optimize``,
so it gets no span of its own: its time and call count are added to the
enclosing ``optimize`` span.
"""

from __future__ import annotations

import functools
import itertools
import statistics
import threading
from time import perf_counter

import reference as ref


class Span:
    __slots__ = ("name", "key", "parent", "start", "end", "value_calls", "value_time", "result", "args")

    def __init__(self, name, key, parent):
        self.name = name
        self.key = key
        self.parent = parent
        self.value_calls = 0
        self.value_time = 0.0
        self.result = None
        self.args = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._local = threading.local()
        self._saved: list = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _span_wrapper(self, fn, name, key_of=None, keep=False):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            span = Span(name, key_of(args) if key_of else None, stack[-1] if stack else None)
            stack.append(span)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
                tracer.spans.append(span)
            if keep:
                span.args, span.result = args, result
            return result

        return wrapper

    def _value_wrapper(self, fn):
        tracer = self

        @functools.wraps(fn)
        def value_rows(obj, rows):
            start = perf_counter()
            try:
                return fn(obj, rows)
            finally:
                elapsed = perf_counter() - start
                stack = tracer._stack()
                if stack and stack[-1].name == "swarm.optimize":
                    stack[-1].value_calls += 1
                    stack[-1].value_time += elapsed

        return value_rows

    def _patch(self, owner, attr, replacement) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        from swarmfl import cli, experiments, flsim, swarm
        from swarmfl.swarm.support import BatchObjective

        optimize = self._span_wrapper(
            swarm.optimize, "swarm.optimize", key_of=lambda a: a[1].algorithm, keep=True
        )
        self._patch(swarm, "optimize", optimize)
        self._patch(flsim, "optimize", optimize)
        self._patch(BatchObjective, "value_rows", self._value_wrapper(BatchObjective.value_rows))
        for attr in ("build_clients", "run_round", "local_train", "fed_avg", "evaluate_global"):
            self._patch(flsim, attr, self._span_wrapper(getattr(flsim, attr), f"flsim.{attr}"))
        self._patch(flsim, "gen_dataset", self._span_wrapper(flsim.gen_dataset, "datagen.gen_dataset"))
        self._patch(experiments, "run_session",
                    self._span_wrapper(experiments.run_session, "experiments.session"))
        self._patch(cli, "run_experiment",
                    self._span_wrapper(cli.run_experiment, "experiments.run_experiment"))
        self._patch(cli, "emit_report",
                    self._span_wrapper(cli.emit_report, "experiments.emit_report"))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def metrics(self, overhead_share: float, report_sizes: list) -> dict:
        """Per-layer metrics from the recorded spans; a layer never called reads 0."""
        by_name: dict = {}
        for span in self.spans:
            by_name.setdefault(span.name, []).append(span)

        def median_ms(spans) -> float:
            return statistics.median(s.duration for s in spans) * 1e3 if spans else 0.0

        out = {}
        optimize = by_name.get("swarm.optimize", [])
        for algo in ref.ALGORITHMS:
            calls = [s for s in optimize if s.key == algo]
            out[f"swarm.optimize_ms.{algo}"] = (median_ms(calls), "ms")
            out[f"swarm.value_ms.{algo}"] = (
                statistics.median(s.value_time for s in calls) * 1e3 if calls else 0.0, "ms")
            out[f"swarm.value_calls.{algo}"] = (
                statistics.mean(s.value_calls for s in calls) if calls else 0.0, "count")
            out[f"swarm.evaluations.{algo}"] = (
                statistics.mean(s.result.evaluations for s in calls) if calls else 0.0, "count")
        out["swarm.exact_share"] = (_exact_share(optimize), "ratio")

        rounds = by_name.get("flsim.run_round", [])
        round_time = sum(s.duration for s in rounds)
        select_time = sum(s.duration for s in optimize if s.parent is not None
                          and s.parent.name == "flsim.run_round")
        sessions = by_name.get("experiments.session", [])
        out["flsim.round_ms"] = (median_ms(rounds), "ms")
        out["flsim.select_share"] = (select_time / round_time if round_time else 0.0, "ratio")
        out["flsim.local_train_ms"] = (median_ms(by_name.get("flsim.local_train", [])), "ms")
        out["flsim.local_train_calls"] = (
            len(by_name.get("flsim.local_train", [])) / len(sessions) if sessions else 0.0, "count")
        for name in ("flsim.fed_avg", "flsim.evaluate_global", "flsim.build_clients",
                     "datagen.gen_dataset", "experiments.emit_report"):
            out[f"{name}_ms"] = (median_ms(by_name.get(name, [])), "ms")
        out["experiments.session_ms"] = (median_ms(sessions), "ms")
        out["experiments.run_experiment_ms"] = (
            median_ms(by_name.get("experiments.run_experiment", [])), "ms")
        out["experiments.files_written"] = (
            statistics.mean(f for f, _ in report_sizes) if report_sizes else 0.0, "count")
        out["experiments.bytes_written"] = (
            statistics.mean(b for _, b in report_sizes) if report_sizes else 0.0, "bytes")
        out["trace.overhead_share"] = (overhead_share, "ratio")
        return out


def _exact_share(optimize_spans) -> float:
    """Share of optimize calls whose best value equals the reference optimum."""
    if not optimize_spans:
        return 0.0
    optima: dict = {}
    hits = 0
    for span in optimize_spans:
        problem = span.args[0]
        if id(problem) not in optima:
            optima[id(problem)] = _optimum(problem)
        hits += abs(span.result.best_value - optima[id(problem)]) <= ref.VALUE_TOL
    return hits / len(optimize_spans)


def _optimum(problem) -> float:
    objective = problem.objective
    if objective.coverage_bonus == 0:
        return ref.topk_optimum(objective.profiles, problem.k)
    return max(
        ref.subset_score(objective.profiles, s, objective.coverage_bonus,
                         objective.class_distributions)
        for s in itertools.combinations(range(problem.n_clients), problem.k)
    )
