"""A fixed unit of work that measures how fast the machine runs right now.

The benchmark runs on a few cores of a shared host whose speed drifts by a
fifth or more within seconds, which moves every wall-clock latency with it.
The measured process times ``unit`` once per cycle of ops, interleaved with
them, so a run's latencies can also be given in reference units: the op's
time over the median time of ``unit`` in the same run.  The unit mixes the
kinds of work the ops do (interpreter-bound Python, JSON decoding, small
numpy arrays and LAPACK decompositions) and depends on nothing in ``src/``,
so a change to the program moves the numerator only.
"""

from __future__ import annotations

import json
from time import perf_counter

import numpy as np

_rng = np.random.default_rng(20251101)
_SMALL = _rng.standard_normal((64, 3, 3)) + 1j * _rng.standard_normal((64, 3, 3))
_H = _rng.standard_normal((48, 48))
_H = _H + _H.T
_POINTS = _rng.standard_normal((2000, 2)) * 0.5
_TEXT = json.dumps({"points": [[f"{x:.17g}", f"{y:.17g}"] for x, y in _POINTS[:600]]})


def _python_work() -> int:
    acc = 0
    table = {}
    for i in range(6000):
        key = (i * 7919) % 1021
        table[key] = table.get(key, 0) + i
        acc += key & 15
    return acc + len(table)


def _numpy_work() -> float:
    total = float(np.abs(np.linalg.eigvals(_SMALL)).max())
    total += float(np.linalg.eigvalsh(_H)[-1])
    z = _POINTS[:, 0] + 1j * _POINTS[:, 1]
    total += float(np.abs(z / (1.0 - 0.5 * z * z.conj())).sum())
    return total


def unit() -> float:
    """Run the reference work once; returns its wall time in seconds."""
    t0 = perf_counter()
    payload = json.loads(_TEXT)
    _python_work()
    _numpy_work()
    complex(*map(float, payload["points"][-1]))
    return perf_counter() - t0
