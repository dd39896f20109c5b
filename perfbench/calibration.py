"""Reference work that puts timings on a shared machine on a common scale.

On a small shared machine the same work can take up to twice as long from
one second to the next, and a slowdown can hold for seconds.  The benchmark
therefore times this fixed reference work next to every measured item and
reports each timing scaled by ``REFERENCE_S / (reference time measured
around the item)``: seconds at the speed the machine had when the reference
took ``REFERENCE_S``.  Raw wall times are printed beside the scaled ones.

The reference shares no code with specmeas, so a change to specmeas moves
the item times and not the reference.  It is shaped like specmeas's hot
paths: small complex eigh, matmul, norm, stack and tensordot calls from
Python loops, and one least-squares solve on a stacked 256 x 12 family.
"""

from __future__ import annotations

import time

import numpy as np

# about the median reference time on a 2-core Xeon, so scaled times there
# read close to wall times
REFERENCE_S = 0.005

_RNG = np.random.default_rng(2014)
_HERMITIAN = []
for _d in (4, 8, 16):
    _a = _RNG.standard_normal((_d, _d)) + 1j * _RNG.standard_normal((_d, _d))
    _HERMITIAN.append(_a + _a.conj().T)
_COLUMNS = _RNG.standard_normal((256, 12)) + 0j


def reference_work(reps: int = 12) -> float:
    acc = 0.0
    for _ in range(reps):
        for h in _HERMITIAN:
            w, v = np.linalg.eigh(h)
            half = v[:, : len(w) // 2]
            p = half @ half.conj().T
            acc += float(np.linalg.norm(p @ p - p))
            stack = np.stack([p, h, p @ h])
            acc += float(np.abs(np.tensordot(w[:3], stack, axes=(0, 0))).sum())
            cells = {j: (j, p[j % len(w)]) for j in range(8)}
            acc += sum(abs(complex(row[0])) for _, row in cells.values())
        coeffs, *_ = np.linalg.lstsq(_COLUMNS, _COLUMNS[:, 0], rcond=None)
        acc += float(abs(coeffs[0]))
    return acc


def time_reference(clock=time.perf_counter) -> float:
    """Seconds one run of the reference work takes now."""
    t0 = clock()
    reference_work()
    return clock() - t0


def scale(seconds: list, references: list) -> list:
    """Scale each timing by the mean of the reference times taken just
    before and just after it; ``references`` has one more entry."""
    if len(references) != len(seconds) + 1:
        raise ValueError("need one reference time before and after each item")
    return [t * 2.0 * REFERENCE_S / (references[i] + references[i + 1])
            for i, t in enumerate(seconds)]
