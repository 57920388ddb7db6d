"""Call timing rescaled to a reference speed, for a shared host whose speed drifts.

On the 2-vCPU reference machine (see README.md), the same ``optimize`` call
took anywhere from 245 to 390 ms within one minute, and whole runs drifted by
10-20% together, in CPU time as much as in wall time, while steal time
stayed near zero: the host's speed changes, not our share of it.  So the
benchmark times a fixed kernel of its own between groups of calls: a small
swarm loop (rank-decode a population, score it, move it) written with numpy
on fixed data, like the selectors' inner loops.  Each call's time is
multiplied by ``KERNEL_REF_S`` over the median kernel time of the probes
around its group.  Measured over 100 s of mixed selector calls, this cut
the quartile spread of 2-second blocks from 12% to 4%.  The program under
test never runs inside the kernel, so a change to swarmfl cannot move it.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

# Median kernel time on the reference machine (see README.md).  It only sets
# the scale of the reported numbers.
KERNEL_REF_S = 0.00254

_FITNESS = np.random.default_rng(1).random(25)


def _kernel() -> float:
    start = perf_counter()
    rng = np.random.default_rng(7)
    x = rng.random((20, 25))
    best = -1.0
    for _ in range(60):
        rows = np.sort(np.argsort(-x, axis=1, kind="stable")[:, :10], axis=1)
        values = _FITNESS[rows].sum(axis=1) / 10
        i = int(np.argmax(values))
        best = max(best, float(values[i]))
        x = np.abs(x + 0.1 * (x[i] - x) * rng.random((20, 25)))
        x = np.where(x > 1.0, 2.0 - x, x)
    return perf_counter() - start


def _probe() -> float:
    return statistics.median(_kernel() for _ in range(5))


class Clock:
    """Times calls, grouped by key, and rescales them to reference speed."""

    def __init__(self):
        self.probes = [_probe()]
        self._pending: list = []
        self._groups: list = []  # (key, index of the probe before, raw times)

    def call(self, fn):
        """Run ``fn()`` and time it; an exception it raises is returned, not raised."""
        start = perf_counter()
        try:
            outcome = fn()
        except Exception as exc:  # noqa: BLE001 - the caller counts it as a failed operation
            outcome = exc
        self._pending.append(perf_counter() - start)
        return outcome

    def settle(self, key) -> None:
        """Close the group of calls since the last settle, filed under ``key``."""
        self._groups.append((key, len(self.probes) - 1, self._pending))
        self._pending = []
        self.probes.append(_probe())

    def times(self) -> dict:
        """key -> reference-speed times of its calls, in call order.

        A group's speed is the median of the two probes on either side of it,
        so one probe caught in a brief stall does not rescale a whole call.
        """
        out: dict = {}
        for key, before, raw in self._groups:
            near = self.probes[max(0, before - 1):before + 3]
            scale = KERNEL_REF_S / statistics.median(near)
            out.setdefault(key, []).extend(t * scale for t in raw)
        return out
