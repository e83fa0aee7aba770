"""The machine's speed, sampled beside the timed work, to scale its times.

The benchmark runs on a shared machine, and a raw time says as much about
the neighbours as about the program.  Two things are done about that.

Every time is CPU time (user + system) of the process doing the work, not
wall time: with another tenant busy on the second core, a wall-clock time
doubled, mostly waiting for the CPU, while the CPU time grew by a quarter.
For this single-threaded program CPU time is the wall time it takes on an
idle machine.

What is left, a core that runs slower while its neighbour is busy, is
scaled away with work that the program cannot change:

* ``floor``  a fresh ``python -c pass``, beside every child process;
* ``calls``  a fixed pure-Python loop of calls, small objects and dict
  updates in the benchmark's own process, beside each sweep pass;
* ``scan``   a fixed trial-division loop of modular arithmetic and set
  membership tests, beside in-process scalar calls.

A busy neighbour slows different code by different amounts, so each loop
is shaped like the work it scales.  In eight processes over a minute, the
CPU time of a ``survivor_density`` pass ranged over 7.6-13.5 ms; its ratio
to ``calls`` moved by 5 %, to ``scan`` by 14 %, and that of 60 scalar ops
moved by 14 % to ``calls`` and by 6 % to ``scan``.

An item of ``ns`` at stamp ``t`` scales to
``ns * REF_NS[kind] / median(samples of kind within WINDOW_NS of t)``: its
time on a machine where the floor takes 50 ms and each loop 1 ms, which is
about the usual speed of the 2-vCPU VM the benchmark was tuned on.  A
floor is stamped with the wall clock, a loop with this process's CPU
clock; items are stamped on the clock of the kind that scales them.
"""

from __future__ import annotations

import statistics
from array import array
from bisect import bisect_left, bisect_right
from time import process_time_ns

REF_NS = {"floor": 50e6, "calls": 1e6, "scan": 1e6}
WINDOW_NS = 500_000_000
LOOP_EVERY_NS = 20_000_000  # in-process work samples its loop at least this often


class _Cell:
    __slots__ = ("n", "r")

    def __init__(self, n: int, r: int):
        self.n = n
        self.r = r


def _step(n: int) -> int:
    if n % 2 == 0:
        return 0
    if n % 10 not in (1, 3, 7, 9):
        return 1
    return _Cell(n, n % 24).r


def _calls() -> dict:
    seen = {0: 0, 1: 0}
    for i in range(1, 4_000):
        r = _step(i)
        if r in seen:
            seen[r] += 1
    return seen


_DIGITS = frozenset((1, 3, 7, 9))
_ROOTS = frozenset((1, 2, 4, 5, 7, 8))


def _scan() -> int:
    n, d, step, hits = 10**10 + 19, 5, 2, 0
    while d < 22_000:
        if d % 10 in _DIGITS and 1 + (d - 1) % 9 in _ROOTS and n % d == 0:
            hits += 1
        d += step
        step = 6 - step
    return hits


LOOPS = {"calls": _calls, "scan": _scan}  # each about 1 ms on that VM


class Yardstick:
    def __init__(self, spawn_floor):
        """``spawn_floor()`` runs ``python -c pass`` to exit and returns
        (wall stamp, its CPU ns)."""
        self._spawn_floor = spawn_floor
        self.stamps = {kind: array("q") for kind in REF_NS}
        self.ns = {kind: array("q") for kind in REF_NS}

    def _add(self, kind: str, stamp: int, ns: int) -> None:
        self.stamps[kind].append(stamp)
        self.ns[kind].append(ns)

    def floor(self) -> None:
        self._add("floor", *self._spawn_floor())

    def loop(self, kind: str) -> None:
        c0 = process_time_ns()
        LOOPS[kind]()
        self._add(kind, c0, process_time_ns() - c0)

    def loop_if_due(self, kind: str) -> None:
        stamps = self.stamps[kind]
        if not stamps or process_time_ns() - stamps[-1] >= LOOP_EVERY_NS:
            self.loop(kind)

    def scale(self, kind: str, stamp: int, ns: int) -> float:
        """``ns`` of work stamped ``stamp``, at the reference speed (see the module doc)."""
        stamps, samples = self.stamps[kind], self.ns[kind]
        lo, hi = bisect_left(stamps, stamp - WINDOW_NS), bisect_right(stamps, stamp + WINDOW_NS)
        if lo == hi:  # no sample in the window: the nearest one
            i = min(lo, len(stamps) - 1)
            if i > 0 and stamp - stamps[i - 1] < stamps[i] - stamp:
                i -= 1
            lo, hi = i, i + 1
        return ns * REF_NS[kind] / statistics.median(samples[lo:hi])
