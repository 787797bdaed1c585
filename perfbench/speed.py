"""The machine's speed, measured next to every op by a fixed reference kernel.

The benchmark runs on shared virtual machines whose speed changes from
second to second: the same pure-Python loop can take 1.8 times as long in
a busy minute as in a quiet one, and process CPU time swings with wall
time.  Runs made at different minutes therefore disagree by more than a
change to the program would move them.

So the benchmark times `kernel` right after every op (and once before the
first) and scales the op's wall time by REF_S over the median of the four
kernel times nearest to it, two before and two after: the op's time on a
machine where the kernel takes REF_S.  The machine's speed changes within
a second, so only kernel times next to the op track it; the median of four
drops a kernel call that one stray interruption slowed.  The kernel is
the benchmark's own code and never calls the program, so a slower program
still reads slower; only the machine's speed at that moment cancels.
`kernel` mixes what the ops do, interpreted modular elimination on Python
ints and small numpy int64 products, and allocates nothing that outlives
it.  Changing the kernel or REF_S changes the scale of every timing
metric, so both stay fixed.
"""

from __future__ import annotations

import gc
import statistics
from time import perf_counter

import numpy as np

# About the kernel's time in most minutes on a shared 2-vCPU Intel Xeon VM
# with Python 3.11, so a scaled time there reads as wall seconds.
REF_S = 0.0013

_P = 65521
_N = 14
_ROWS = [[int(x) for x in row] for row in np.random.default_rng(20240731).integers(0, _P, size=(_N, _N))]
_M = np.random.default_rng(20240801).integers(0, _P, size=(24, 24))


def kernel() -> int:
    """Rank of a fixed 14x14 matrix mod 65521 by Python elimination, then
    twenty 24x24 numpy products mod 65521; returns a checksum."""
    A = [row[:] for row in _ROWS]
    rank = 0
    for c in range(_N):
        piv = next((r for r in range(rank, _N) if A[r][c]), None)
        if piv is None:
            continue
        A[rank], A[piv] = A[piv], A[rank]
        inv = pow(A[rank][c], _P - 2, _P)
        A[rank] = [x * inv % _P for x in A[rank]]
        for r in range(_N):
            if r != rank and A[r][c]:
                f = A[r][c]
                A[r] = [(x - f * y) % _P for x, y in zip(A[r], A[rank])]
        rank += 1
    B = _M
    for _ in range(20):
        B = (B @ _M) % _P
        B = np.concatenate([B[1:], B[:1]])
    return rank + int(B[0, 0])


def kernel_s() -> float:
    """Wall time of one kernel call, with the garbage collector held off so
    that the program's heap does not enter the reference."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        kernel()
        return perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class Timeline:
    """The wall times of a run's ops in the order they ran, with a kernel
    time before the first op and after every op."""

    def __init__(self):
        self.kernels: list[float] = [kernel_s()]
        self.walls: list[float] = []

    def record(self, wall_s: float) -> int:
        """Add an op's wall time, time the kernel after it, and return the
        op's place on the timeline."""
        self.walls.append(wall_s)
        self.kernels.append(kernel_s())
        return len(self.walls) - 1

    def scaled(self, j: int) -> float:
        """Op j's time at the reference speed.  kernels[j] ran just before
        it and kernels[j + 1] just after."""
        near = self.kernels[max(0, j - 1) : j + 3]
        return self.walls[j] * REF_S / statistics.median(near)
