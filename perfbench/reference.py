"""A fixed reference kernel that measures how fast the host runs right now.

On a shared host the speed of a vCPU changes by 25% and more, in phases of
tens of seconds to minutes, as other tenants load the same cores and the
shared last-level cache.  A 30-second run then reads fast or slow depending
on the phase it falls in, and ten runs spread by about as much as the bound
a later change is held to.  Interpreted Python, numpy element-wise code and
LAPACK all slow together, so the worker times this kernel right before every
job, and ``run.py`` rescales the run's job times by the run's median kernel
time.

The kernel uses numpy only, never impscat, so no change to impscat can move
it.  It mixes the kinds of work impscat's jobs do: a Python loop of scalar
float arithmetic (the scalar Bessel and quadrature set-up loops),
element-wise exp/cos/sqrt (the Carleman weights), small and larger complex
SVDs and a solve (the forward system's singularity check and dense solve),
and a pass over arrays larger than the L2 cache (the dense systems, which
live in the last-level cache).  Its arrays are made once and its outputs
are preallocated where numpy allows, so little of its time depends on what
the jobs before it left in the allocator.
"""

from __future__ import annotations

import math
import time

import numpy as np

# About the kernel's median time on a shared 2-vCPU Intel Xeon VM with one
# BLAS thread.  It fixes the scale only: a rescaled time reads as the seconds
# the job takes on that host when the kernel takes this long.
REFERENCE_NOMINAL_S = 0.060

_RNG = np.random.default_rng(20120112)
_ARRAY = _RNG.uniform(-1.0, 1.0, 8192)
_BUF = (np.empty_like(_ARRAY), np.empty_like(_ARRAY))
_SMALL = _RNG.standard_normal((48, 48)) + 1j * _RNG.standard_normal((48, 48))
_SMALL_RHS = _RNG.standard_normal(48) + 0j
_LARGE = _RNG.standard_normal((288, 288)) + 1j * _RNG.standard_normal((288, 288))
# three 2 MiB arrays: 6 MiB, past the 2 MiB L2 cache
_STREAM = [_RNG.standard_normal(1 << 18) for _ in range(3)]


def _python_part() -> float:
    acc = 0.0
    for i in range(1, 45000):
        x = i * 1e-4
        acc += math.exp(-x) * math.cos(x) + math.sqrt(x)
    return acc


def _elementwise_part() -> float:
    acc = 0.0
    a, b = _BUF
    for _ in range(70):
        np.exp(_ARRAY, out=a)
        np.multiply(_ARRAY, 3.0, out=b)
        np.cos(b, out=b)
        np.multiply(a, b, out=a)
        np.abs(_ARRAY, out=b)
        np.sqrt(b, out=b)
        np.add(a, b, out=a)
        acc += float(a.sum())
    return acc


def _lapack_part() -> float:
    acc = 0.0
    for _ in range(18):
        s = np.linalg.svd(_SMALL, compute_uv=False)
        x = np.linalg.solve(_SMALL, _SMALL_RHS)
        acc += float(s[0]) + float(np.abs(x[0]))
    s = np.linalg.svd(_LARGE, compute_uv=False)
    return acc + float(s[0])


def _stream_part() -> float:
    x, y, z = _STREAM
    for _ in range(24):
        np.multiply(x, 1.0000001, out=z)
        np.add(y, z, out=z)
        np.subtract(z, x, out=y)
    return float(y[0])


def reference_seconds() -> float:
    """Run the kernel once; return its wall seconds."""
    start = time.perf_counter()
    _python_part()
    _elementwise_part()
    _lapack_part()
    _stream_part()
    return time.perf_counter() - start
