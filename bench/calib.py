"""Machine-speed calibration for the araid benchmark.

The benchmark was defined on a shared 2-vCPU virtual machine whose speed
swings by up to 2x, in stretches from under a second to minutes, whatever
the benchmark's own process does. Within one run the swing averages out;
between runs it does not, so the medians of ten runs of the same code
spread by 20-35%. The swing differs between the two CPUs, so the run
pins itself to one CPU before it measures (run.py).

To take the swing out, a run interleaves the ops with chunks of a fixed
kernel that the program under test cannot touch: it imports only the
standard library and numpy. After each op the run owes `SHARE` of the
op's wall time to calibration, and pays it in whole chunks before the
next op starts. The chunks thus sample the machine's speed across the
whole run, in proportion to the time the ops took. The mean chunk time
of the run, against `REF_CHUNK_S`, says how fast the machine ran:

    reference seconds = wall seconds * REF_CHUNK_S / mean chunk seconds

The kernel mixes what the program's hot path does: Python loops over
dicts and floats, seeded `random` draws, small `numpy.einsum` calls and
`fractions.Fraction` sums.
"""
from __future__ import annotations

import random
import statistics
from fractions import Fraction
from time import perf_counter

import numpy as np

CHUNK_ITERS = 20_000
SHARE = 0.12          # calibration time owed per second of op time
# Mean chunk time on the machine the benchmark was defined on: a 2-vCPU
# KVM guest of an Intel Xeon (Sapphire Rapids, 2.0 GHz), Python 3.11.7,
# numpy 2.4, over a 7-minute run. It only scales the reported seconds.
REF_CHUNK_S = 0.021

_A = np.arange(24, dtype=float).reshape(2, 3, 4)
_B = np.arange(12, dtype=float).reshape(3, 4)


def kernel() -> tuple[float, Fraction]:
    """A fixed amount of work; its result is returned so none is skipped."""
    rnd = random.Random(7)
    acc, table, tally = 0.0, {}, Fraction(0)
    for i in range(CHUNK_ITERS):
        x = rnd.random()
        table[i & 63] = table.get(i & 63, 0.0) + x
        if i % 8 == 0:
            acc += float(np.einsum("ijk,jk->i", _A, _B)[0]) * x
        if i % 64 == 0:
            tally += Fraction(i % 7, 1 + i % 5)
    return acc + sum(table.values()), tally


class Calibrator:
    """Chunk times of one run, paid as a share of the ops' wall time."""

    def __init__(self):
        self.chunks: list[float] = []
        self._owed = 0.0

    def pay(self, op_seconds: float) -> float:
        """Run the chunks owed after an op of `op_seconds`; returns their wall time."""
        self._owed += op_seconds * SHARE
        spent = 0.0
        while self._owed > 0:
            chunk = self._chunk()
            self._owed -= chunk
            spent += chunk
        return spent

    def scale(self) -> float:
        """Factor from this run's wall seconds to reference seconds."""
        if not self.chunks:   # a run too short to owe a chunk still gets one
            self._chunk()
        return REF_CHUNK_S / statistics.fmean(self.chunks)

    def _chunk(self) -> float:
        t0 = perf_counter()
        kernel()
        chunk = perf_counter() - t0
        self.chunks.append(chunk)
        return chunk
