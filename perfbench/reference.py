"""A fixed reference kernel that measures how fast the host runs right now.

The benchmark shares a few cores of a host with other tenants, and their
load changes the speed of every op by a quarter or more within a minute:
the median of one op on one dataset swings between 0.27 s and 0.51 s over
two minutes, with the program unchanged.  Timing this kernel between the
ops of a run tells how fast the host ran during the run, so ``op_s`` can be
given at a fixed host speed: the ops' wall time times ``NOMINAL_S`` over
the kernel's mean time in the run.

The kernel does what the program's ops do, on fixed inputs and without any
``rpdml`` code: eigendecompositions and row-wise quadratic forms on small
float64 arrays through numpy on one BLAS thread, and interpreted Python
loops.  A change to the program cannot change its time.
"""

from __future__ import annotations

import time

import numpy as np

DIM = 20
ROWS = 60
ROUNDS = 180
#: Wall time of one kernel call on a quiet host: the fastest of several
#: hundred calls on a 2-vCPU Intel Xeon VM (2.0 GHz), numpy 2.4.6,
#: OpenBLAS 0.3.31 on one thread.  ``op_s`` is given at this host speed.
NOMINAL_S = 0.0320

_rng = np.random.default_rng(0)
_a = _rng.normal(size=(DIM, DIM))
_SPD = _a @ _a.T / DIM + np.eye(DIM)
_ROWS = _rng.normal(size=(ROWS, DIM))
_ONES = np.ones(DIM)


def kernel() -> float:
    """One call: about equal times in eigh, einsum, small-array ops and Python."""
    acc = 0.0
    for i in range(ROUNDS):
        vals, vecs = np.linalg.eigh(_SPD + (i * 1e-3) * np.eye(DIM))
        acc += float(((vecs * np.maximum(vals, 0.0)) @ vecs.T) @ _ONES @ _ONES)
        acc += float(np.einsum("ij,jk,ik->i", _ROWS, _SPD, _ROWS).sum())
        b = _SPD
        for _ in range(10):
            b = 0.5 * (b + b.T)
        acc += float(b[0, 0])
        s = 0
        for j in range(1000):
            s += j * j
        acc += s
    return acc


def time_kernel() -> float:
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0
