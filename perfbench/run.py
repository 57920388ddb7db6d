"""swarmfl benchmark: run one workload and print its metrics as a JSON line.

    python3 perfbench/run.py --workload select --seed 1 --seconds 50 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
With ``--trace 0`` the last line holds the end-to-end metrics, with
``--trace 1`` the per-layer metrics of a traced run (see README.md).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SETUP_PROBES = 3


def import_swarmfl():
    """Import swarmfl from this checkout's src/, never from an installed copy."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import swarmfl
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import swarmfl from {src}: {exc}")
    if Path(swarmfl.__file__).resolve().parent.parent != src.resolve():
        raise SystemExit(f"perfbench: swarmfl was imported from {swarmfl.__file__}, not {src}")
    return swarmfl


def measure_setup(workload: str, seed: int, out_dir: Path) -> float:
    """Median wall time of fresh interpreters that import swarmfl and build the inputs."""
    times = []
    for i in range(SETUP_PROBES):
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                "--seed", str(seed), "--setup-only", str(out_dir / f"probe{i}")]
        start = perf_counter()
        subprocess.run(argv, cwd=ROOT, check=True, timeout=120, stdout=subprocess.DEVNULL)
        times.append(perf_counter() - start)
    return statistics.median(times)


def run_rounds(work, seconds: float) -> list:
    """As many rounds as fit in ``seconds`` at the workload's nominal round length.

    The count depends only on ``seconds``, so every run attempts the same
    operations however fast the machine is.
    """
    return [work.run_round() for _ in range(max(1, int(seconds // work.round_seconds)))]


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def end_to_end(rounds: list, work, setup_s: float) -> dict:
    import reference as ref

    # Every round repeats the same calls, so a call's time is the median of
    # its repeats over all rounds.
    call_times = {algo: [statistics.median(t for reps in per_call for t in reps)
                         for per_call in zip(*(r.times[algo] for r in rounds))]
                  for algo in ref.ALGORITHMS}
    metrics = {"setup_s": (setup_s, "s"),
               "round_wall_s": (sum(sum(times) for times in call_times.values()), "s")}
    for algo, times in call_times.items():
        metrics[f"ops_per_s.{algo}"] = (rounds[0].weight * len(times) / sum(times), "1/s")
    metrics["quality"] = (work.quality, "ratio")
    metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")
    return metrics


def _reference_seconds(stats) -> float:
    return sum(t for per_call in stats.times.values() for reps in per_call for t in reps)


def traced_run(work, seconds: float):
    """One untraced round, then traced rounds; returns all rounds and per-layer metrics."""
    from tracing import Tracer

    plain = work.run_round()
    sizes_before = len(work.report_sizes)
    tracer = Tracer()
    tracer.install()
    try:
        traced = run_rounds(work, seconds - work.round_seconds)
    finally:
        tracer.uninstall()
    overhead = statistics.median(map(_reference_seconds, traced)) / _reference_seconds(plain) - 1.0
    metrics = tracer.metrics(overhead, work.report_sizes[sizes_before:])
    return [plain, *traced], metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", metavar="DIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    import_swarmfl()
    import reference as ref
    from swarmfl.swarm import ALGORITHM_NAMES
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    if args.setup_only:
        WORKLOADS[args.workload](args.seed, Path(args.setup_only))
        shutil.rmtree(args.setup_only, ignore_errors=True)
        return 0

    out_dir = ROOT / ".perfbench_out" / f"{args.workload}-{os.getpid()}"
    work = None
    try:
        if args.trace:
            work = WORKLOADS[args.workload](args.seed, out_dir)
            rounds, metrics = traced_run(work, args.seconds)
        else:
            setup_s = measure_setup(args.workload, args.seed, out_dir)
            work = WORKLOADS[args.workload](args.seed, out_dir)
            rounds = run_rounds(work, args.seconds)
            metrics = end_to_end(rounds, work, setup_s)
    finally:
        if work is not None:
            work.finish()
        shutil.rmtree(out_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            out_dir.parent.rmdir()

    faults = list(work.faults)
    if tuple(ALGORITHM_NAMES) != ref.ALGORITHMS:
        faults.append(f"algorithm order {ALGORITHM_NAMES} != {ref.ALGORITHMS}")
    for fault in faults:
        print(f"perfbench: check failed: {fault}", file=sys.stderr)
    attempted = sum(sum(r.ops.values()) for r in rounds)
    failed = sum(r.failed for r in rounds)
    result = {
        "correct": not faults,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
