"""Machine-speed probe for a shared, noisy host.

On a small shared machine the speed of the same code drifts by 10-25%
over spells of a minute or more, longer than one benchmark run, so two
runs of one commit can differ by more than any useful regression bound.
`probe` runs a fixed piece of work that uses no imgdna code and returns
its time: an interpreter loop over a dict, small numpy calls and one
larger vectorised pass, the three kinds of work imgdna's layers do. The
runner probes before each operation and multiplies the operation's time
by REFERENCE_S / probe time, where REFERENCE_S is the probe's median on
the reference machine (see README.md), so a figure reads as if measured
on that machine at its usual speed.
"""

from __future__ import annotations

import time

import numpy as np

REFERENCE_S = 0.0155

_TABLE = {i: (i * 2654435761) & 0xFFFF for i in range(4096)}
_SMALL = np.arange(50, dtype=np.int64)
_LARGE = np.random.default_rng(0).random((256, 256))


def _work() -> float:
    acc = 0
    for i in range(40_000):
        acc = (acc + _TABLE[(acc ^ i) & 4095]) & 0xFFFFFFFF
    for i in range(1_000):
        acc += int(((_SMALL + i) % 4).sum())
    total = float(acc)
    for i in range(10):
        total += float(np.cumsum(_LARGE * 1.5 + i, axis=0).sum())
    return total


def probe() -> float:
    """Seconds the fixed work takes now."""
    t0 = time.perf_counter()
    _work()
    return time.perf_counter() - t0
