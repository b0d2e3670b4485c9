"""Sampler wall time at a nominal host speed, from an interleaved reference loop.

On a shared machine the speed of this process swings by ±20% over seconds
to a minute with other tenants' load (a fixed ``tangent_step`` loop
measured 92–185 µs per step in 5-second windows), which no longer run can
average away.  So during the untraced passes a fixed reference loop runs
between sampler steps: the first ``tangent_step`` or ``slice_sweep`` call
at least ``REF_EVERY_S`` seconds after the previous reference first runs
``reference()`` and times it.  The reference is not tangentmh code; it
does the kind of library work the samplers' steps do (small Cholesky
factorizations and triangular solves, small-array numpy calls, dataclass
construction, a 400x10 product).  Of six candidate loops it tracked the
samplers best: interleaved for 150 seconds with four sampler loops on a
contended 2-vCPU host (their rolling-median times varied with a
coefficient of variation of 0.17–0.21), the log of its rolling-median
time had slopes of 0.81 (cached Poisson ``tangent_step``), 0.88 (logistic
``block_sweep``), 0.89 (hb group ``block_sweep``) and 0.99
(``slice_sweep``) against theirs.
The samplers slow a little less than the reference, so on a slowed host
the corrected figures read somewhat fast.

A sampler call's corrected time is the sum over its stretches between
references of the stretch's duration times ``REF_NOMINAL_S`` over the
local reference time (a rolling median of ``2 * REF_SMOOTH + 1``
references); the references' own time is left out.  Every step's cost is
in that sum; only the host's speed is divided out, and the result is in
seconds at the speed at which ``reference()`` takes ``REF_NOMINAL_S``.
The raw wall times and the reference times stay in the record.
"""

from __future__ import annotations

import contextlib
import math
import time
from array import array
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular

from tangentmh import slicer, tangent

from tracing import replaced

REF_EVERY_S = 0.1
REF_SMOOTH = 10
# reference() in a quiet stretch of the 2-vCPU Xeon host the bounds were
# set on; it only fixes the scale of the corrected times
REF_NOMINAL_S = 0.8e-3

_SPD = np.eye(5) * 2.0 + 0.1
_VEC = np.linspace(0.1, 0.5, 5)
_MAT = np.linspace(-1.0, 1.0, 4000).reshape(400, 10)
_COEF = np.linspace(-0.5, 0.5, 10)


@dataclass
class _Record:
    value: float
    matrix: np.ndarray


def reference(n: int = 40) -> float:
    """A fixed amount of the library work a sampler step does: small
    factorizations and solves, small-array numpy calls, a dataclass per
    step, and every fourth step a 400x10 product."""
    acc = 0.0
    for i in range(n):
        chol = np.linalg.cholesky(_SPD)
        z = solve_triangular(chol, _VEC, lower=True)
        rec = _Record(float(np.exp(z[0])), np.array([[z[1]]]))
        acc += rec.value + float(rec.matrix[0, 0]) + math.log1p(i)
        if i % 4 == 0:
            acc += float(np.sum(np.tanh(_MAT @ _COEF)))
    return acc


def reference_timings(seconds: float = 0.3) -> list[float]:
    """Durations of references run back to back for ``seconds``."""
    out, stop = [], time.perf_counter() + seconds
    while True:
        t0 = time.perf_counter()
        reference()
        t1 = time.perf_counter()
        out.append(t1 - t0)
        if t1 >= stop:
            return out


def _rolling_median(a: np.ndarray, k: int) -> np.ndarray:
    return np.array([np.median(a[max(0, i - k):i + k + 1]) for i in range(a.size)])


class Pace:
    """Start and end times of the references run so far, kept in memory."""

    def __init__(self):
        self.ref_start = array("d")
        self.ref_end = array("d")
        self._next = 0.0

    def clear(self) -> None:
        del self.ref_start[:], self.ref_end[:]
        self._next = 0.0

    def _marker(self, fn):
        starts, ends, clock = self.ref_start, self.ref_end, time.perf_counter

        def marked(*args, **kwargs):
            t = clock()
            if t >= self._next:
                reference()
                done = clock()
                starts.append(t)
                ends.append(done)
                self._next = done + REF_EVERY_S
            return fn(*args, **kwargs)

        return marked

    @contextlib.contextmanager
    def marking(self, callers=()):
        with replaced(tangent, "tangent_step", self._marker, callers), \
                replaced(slicer, "slice_sweep", self._marker, callers):
            yield self

    def reference_s(self) -> float:
        """Median reference time so far, seconds."""
        return float(np.median(np.subtract(self.ref_end, self.ref_start))) if self.ref_start else math.nan

    def corrected(self, window) -> tuple[float, float]:
        """(corrected, raw) seconds of the sampler call timed as ``window``
        (perf_counter() at entry and exit), the references' time left out."""
        t0, t1 = window
        start = np.frombuffer(self.ref_start, dtype=np.float64)
        end = np.frombuffer(self.ref_end, dtype=np.float64)
        if start.size == 0:
            return t1 - t0, t1 - t0
        local = _rolling_median(end - start, REF_SMOOTH)
        inside = np.flatnonzero((start >= t0) & (end <= t1))
        if inside.size == 0:  # a call shorter than REF_EVERY_S: the nearest reference
            k = int(np.argmin(np.abs(start - t0)))
            return (t1 - t0) * REF_NOMINAL_S / local[k], t1 - t0
        stretch = np.append(start[inside], t1) - np.insert(end[inside], 0, t0)
        speed = local[np.append(inside, inside[-1])]  # a stretch takes the reference that ends it
        return float(np.sum(stretch * REF_NOMINAL_S / speed)), float(np.sum(stretch))
