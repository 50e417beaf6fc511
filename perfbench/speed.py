"""Host-speed probes that rescale measured times to a reference speed.

On a shared host the same job list can take 1.8x longer from one
minute to the next (measured on the 2-core development VM: identical
repetitions of ``sim-iu-sweep`` ran in 2.8-5.1 s).  The slowdown hits
any code running at that moment, so the benchmark times a fixed probe
just before and just after each measured interval and rescales the
interval by ``REFERENCE_S / mean(probe before, probe after)``.  The
result reads as seconds on a host where the probe takes
``REFERENCE_S``.

There are two probes because the two kinds of work slow down
differently: the simulator is interpreter-bound (dict and tuple churn),
the counting engine is NumPy-bound (sorts, searches, gathers).  A probe
of the wrong kind made the counting workload's spread worse, not better.
"""

from __future__ import annotations

import time

import numpy as np

__all__ = ["REFERENCE_S", "probe"]

#: Median probe durations on the 2-core development VM.
REFERENCE_S = {"python": 0.027, "numpy": 0.023}

_RNG = np.random.default_rng(0)
_VALUES = _RNG.integers(0, 1 << 20, 100_000)
_SORTED = np.sort(_VALUES)


def _python() -> None:
    table: dict[int, tuple[int, int]] = {}
    for i in range(80_000):
        table[i % 997] = (i, table.get((i * 7) % 997, (0, 0))[1] + 1)


def _numpy() -> None:
    np.sort(_VALUES)
    np.searchsorted(_SORTED, _VALUES)
    np.repeat(_SORTED[:1000], 100)


_PROBES = {"python": _python, "numpy": _numpy}


def probe(kind: str) -> float:
    """Seconds the ``kind`` probe takes right now."""
    t0 = time.perf_counter()
    _PROBES[kind]()
    return time.perf_counter() - t0
