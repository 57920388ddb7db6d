"""Digests and report bytes under other host kernels, forced in child processes.

numpy's OpenBLAS, when built with DYNAMIC_ARCH, picks its kernels for the
host when it loads, and numpy dispatches its loops to the widest SIMD level
the host has.  ``OPENBLAS_CORETYPE`` and ``NPY_DISABLE_CPU_FEATURES`` force
other choices; they are read once at load time, so each case sets one of them
for a child process only.  The child computes every pinned selector and
session digest, and the selectors' evaluation counts, and runs a small
``swarmfl run``.  The digests and counts must be the ones pinned in
test_selector_digests.py and test_session_digests.py, so a search stops at
the same point under every kernel, and every report file must have the bytes
of the same run in this process.
Trained weights may differ in bits under another kernel (README,
"byte-reproducible"); the reports are counts, and must not.

Run one case alone with ``python tests/test_host_kernels.py OUT_DIR``: it
prints the child's findings as one JSON line.
"""

import ctypes
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import test_selector_digests as selectors
import test_session_digests as sessions

from swarmfl.cli import main

try:
    from numpy._core import _multiarray_umath as umath
except ImportError:  # numpy < 2
    from numpy.core import _multiarray_umath as umath

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"

RUN_CONFIG = {
    "experiment": "noise",
    "algorithms": ["gwo", "pso", "bat", "fish"],
    "client_counts": [10],
    "noise_levels": [0.0, 0.5],
    "epochs": 3,
    "runs": 2,
    "optimizer": {"population": 10, "iterations": 20},
    "dataset": {"n_train_per_client": 100, "n_test": 400},
}


def openblas_core():
    """The OpenBLAS kernel set in use in this process, or None if it cannot be read."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for symbol in ("scipy_openblas_get_corename64_", "scipy_openblas_get_corename"):
            if hasattr(lib, symbol):
                corename = getattr(lib, symbol)
                corename.restype = ctypes.c_char_p
                return corename().decode()
    return None


def dynamic_openblas():
    """Why numpy's BLAS cannot be forced to other kernels, or None if it can."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"].get("blas", {})
    except TypeError:  # numpy < 1.26 only prints its build configuration
        return "this numpy cannot report its BLAS build"
    if "openblas" not in blas.get("name", ""):
        return f"numpy's BLAS is {blas.get('name', 'unknown')!r}, not OpenBLAS"
    if "DYNAMIC_ARCH" not in blas.get("openblas configuration", ""):
        return "numpy's OpenBLAS was built without DYNAMIC_ARCH"
    return None


def dispatched_avx512():
    """The AVX-512 targets numpy dispatches to on this host."""
    return [
        name
        for name in umath.__cpu_dispatch__
        if (name.startswith("AVX512") or name == "X86_V4") and umath.__cpu_features__.get(name)
    ]


def report_files(out):
    return {str(p.relative_to(out)): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}


def run_report(out):
    """Run ``swarmfl run`` on RUN_CONFIG into ``out``; returns its files' bytes by path."""
    config = out.parent / "config.json"
    config.write_text(json.dumps(RUN_CONFIG), encoding="utf-8")
    assert main(["run", "--config", str(config), "--out", str(out), "--seed", "7"]) == 0
    return report_files(out)


def child(out):
    """What a child reports: its kernels and digests; its report goes to ``out``."""
    out = Path(out)
    out.mkdir(parents=True)
    run_report(out / "report")
    outputs = {name: selectors.selector_output(name) for name in selectors.DIGESTS}
    return {
        "openblas_core": openblas_core(),
        "dispatched": [name for name in umath.__cpu_dispatch__ if umath.__cpu_features__.get(name)],
        "selectors": {name: digest for name, (digest, _) in outputs.items()},
        "evaluations": {name: list(counts) for name, (_, counts) in outputs.items()},
        "sessions": {name: sessions.session_digest(name) for name in sessions.DIGESTS},
    }


def run_child(env_changes, out):
    env = {**os.environ, **env_changes}
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(TESTS)])
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), str(out)],
        env=env, cwd=TESTS.parent, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def expected_report(tmp_path_factory):
    return run_report(tmp_path_factory.mktemp("here") / "report")


def test_forced_openblas_kernels_keep_digests_and_reports(expected_report, tmp_path):
    reason = dynamic_openblas()
    host_core = None if reason else openblas_core()
    if host_core == "Prescott":
        reason = "OpenBLAS already runs its Prescott kernels on this host"
    if reason:
        pytest.skip(reason)
    found = run_child({"OPENBLAS_CORETYPE": "Prescott"}, tmp_path / "child")
    if host_core is not None:
        assert found["openblas_core"] != host_core
    assert_same_output(found, tmp_path / "child", expected_report)


def test_disabled_avx512_keeps_digests_and_reports(expected_report, tmp_path):
    features = dispatched_avx512()
    if not features:
        pytest.skip("numpy dispatches to no AVX-512 target on this host")
    found = run_child({"NPY_DISABLE_CPU_FEATURES": ",".join(features)}, tmp_path / "child")
    assert not set(features) & set(found["dispatched"])
    assert_same_output(found, tmp_path / "child", expected_report)


def assert_same_output(found, out, expected_report):
    assert found["selectors"] == selectors.DIGESTS
    assert found["evaluations"] == {
        name: list(counts) for name, counts in selectors.EVALUATIONS.items()
    }
    assert found["sessions"] == sessions.DIGESTS
    assert report_files(out / "report") == expected_report


if __name__ == "__main__":
    print(json.dumps(child(sys.argv[1])))
