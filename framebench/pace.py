"""Machine pace, sampled while the benchmark works.

On a shared machine the CPU speed of one process can drift by up to 2x
over tens of seconds, in phases that outlast a whole run, so raw wall
times of two sets of runs can disagree by more than any useful bound. The
benchmark therefore times a fixed pure-Python kernel of about a millisecond
between units of work (corpus entries), at most once every INTERVAL_S, and
reports each unit's time at the kernel's nominal pace: measured time x
NOMINAL_S / (mean kernel time within WINDOW_S of the unit). Kernel time is
excluded from every unit.

The kernel lives here, not in framelab, so no change to framelab can move
it. It enumerates the prime filters of a fixed 9-element lattice by brute
force over subsets, which exercises the same interpreter paths as
framelab's inner loops: bit iteration, list building, nested `any` over
table lookups.
"""

from __future__ import annotations

import bisect
import itertools
import time

# Mean kernel time at the pace that reported times are scaled to.
NOMINAL_S = 0.001

# Least time between two samples, so that samples spread evenly in time.
INTERVAL_S = 0.02

# Half-width of the time window whose samples set a unit's local pace.
WINDOW_S = 0.5

_ELEMENTS = [(a, b) for a in range(3) for b in range(3)]
_INDEX = {e: i for i, e in enumerate(_ELEMENTS)}
_JOIN = [
    [_INDEX[(max(x[0], y[0]), max(x[1], y[1]))] for y in _ELEMENTS]
    for x in _ELEMENTS
]
_MEET = [
    [_INDEX[(min(x[0], y[0]), min(x[1], y[1]))] for y in _ELEMENTS]
    for x in _ELEMENTS
]
_UP = [
    sum(1 << _INDEX[y] for y in _ELEMENTS if y[0] >= x[0] and y[1] >= x[1])
    for x in _ELEMENTS
]
# chain3 x chain3 has 4 join-irreducibles, hence 4 prime filters
KERNEL_RESULT = 4


def _bits(mask):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def kernel():
    """Prime filters of chain3 x chain3, by scanning every subset."""
    full = (1 << len(_ELEMENTS)) - 1
    found = []
    for mask in range(1, full):
        members = list(_bits(mask))
        if any(_UP[a] & ~mask for a in members):
            continue
        if any(not (mask >> _MEET[a][b]) & 1 for a in members for b in members):
            continue
        outside = list(_bits(full & ~mask))
        if any((mask >> _JOIN[a][b]) & 1 for a in outside for b in outside):
            continue
        found.append(mask)
    return len(found)


def kernel_seconds():
    """Run the kernel once; returns its duration in seconds."""
    started = time.perf_counter()
    if kernel() != KERNEL_RESULT:
        raise RuntimeError("pace kernel returned a wrong result")
    return time.perf_counter() - started


def scale_now(samples):
    """Factor to nominal pace from `samples` kernel runs made now."""
    return NOMINAL_S * samples / sum(kernel_seconds() for _ in range(samples))


class Meter:
    """Times consecutive units of work and scales each to the nominal pace.

    The clock starts at construction. `mark` ends a unit, then samples the
    kernel if INTERVAL_S has passed since the last sample. `tracer`, if
    given, gets a "bench.pace" span around each sample, so no traced
    layer's self time includes one.
    """

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.units = []  # (start, end) of each unit
        self.samples = []  # (time, kernel seconds)
        self._last = self._sampled = time.perf_counter()

    def mark(self):
        done = time.perf_counter()
        self.units.append((self._last, done))
        if done - self._sampled >= INTERVAL_S:
            self._sample(done)
        self._last = time.perf_counter()

    def _sample(self, at):
        span = self.tracer.begin("bench.pace") if self.tracer else None
        self.samples.append((at, kernel_seconds()))
        if span is not None:
            self.tracer.end(span)
        self._sampled = time.perf_counter()

    def measured(self):
        """Each unit's duration as measured, in seconds."""
        return [end - start for start, end in self.units]

    def scaled(self):
        """Each unit's duration at the nominal pace, in seconds."""
        if not self.samples:
            self._sample(time.perf_counter())
        times = [t for t, _ in self.samples]
        totals = [0.0, *itertools.accumulate(k for _, k in self.samples)]
        out = []
        for start, end in self.units:
            middle = (start + end) / 2
            lo = bisect.bisect_left(times, middle - WINDOW_S)
            hi = bisect.bisect_right(times, middle + WINDOW_S)
            if lo == hi:  # no sample in the window: take the nearest one
                lo = min(lo, len(times) - 1)
                if lo > 0 and middle - times[lo - 1] < times[lo] - middle:
                    lo -= 1
                hi = lo + 1
            out.append((end - start) * NOMINAL_S * (hi - lo) / (totals[hi] - totals[lo]))
        return out
