"""The host's speed, sampled beside the work it is timing.

The reference box is a 2-vCPU micro-VM on a shared host, and its speed
moves by tens of percent in phases that last from under a second to minutes
(CPU time moves with wall time, so it is the processor slowing down, not
the process waiting).  A pass of a few seconds lands in one phase or
another, and ten runs of the same code spread by up to 28% of their median.

So a timed pass is cut into slices of ``SLICE_EVENTS`` simulator events
and a fixed *reference loop* of the benchmark's own (heap, dictionary,
attribute and allocation work: what the simulator is made of) is timed
between every two slices.  A slice's wall time is then expressed in seconds
of a *reference host*: one on which the reference loop takes
``REFERENCE_NS``.  The pass is deterministic, so slice *i* covers the same
events in every same-seed pass; taking, per slice, the median over the
passes also removes what hits one slice of one pass (a preemption, a
collection of the full heap).

``REFERENCE_NS`` and ``reference_loop`` are fixed for ever: changing either
rescales every host-time metric of every workload.
"""

from __future__ import annotations

import gc
import heapq
import statistics
import time
from typing import Callable, List, Sequence, TypeVar

T = TypeVar("T")

#: the reference loop on the reference host at its usual speed
REFERENCE_NS = 920_000
#: simulator events per slice (about 20 ms of a timed pass)
SLICE_EVENTS = 1000
#: a slice's reference time is the median over this many neighbours a side
_NEIGHBOURS = 2

_clock = time.perf_counter_ns


class _Cell:
    __slots__ = ("index", "key", "peer")

    def __init__(self, index: int, key: int):
        self.index = index
        self.key = key
        self.peer = None


def reference_loop() -> int:
    heap: list = []
    by_key: dict = {}
    push, pop = heapq.heappush, heapq.heappop
    for index in range(1500):
        cell = _Cell(index, (index * 7919) % 1013)
        push(heap, (cell.key, index, cell))
        by_key[cell.key] = cell
        if index % 3 == 2:
            _key, _index, popped = pop(heap)
            popped.peer = by_key.get(popped.key)
    return len(heap)


def sample_ns() -> int:
    """Time one reference loop.  The collector is off meanwhile: the loop
    frees by reference count all it allocates, and a collection it happened
    to trigger would time the program's heap, not the host."""
    gc.disable()
    started = _clock()
    reference_loop()
    elapsed = _clock() - started
    gc.enable()
    return elapsed


def slowdown() -> float:
    """How many times slower than the reference host this host is now."""
    return statistics.median(sample_ns() for _ in range(9)) / REFERENCE_NS


class Meter:
    """The slices of one stretch of timed work (a load window, a set-up):
    wall time of each, and the reference loop timed before and after it."""

    def __init__(self) -> None:
        self.wall_ns: List[int] = []
        self._ref_ns: List[float] = []

    def add(self, wall_ns: int, ref_before_ns: int, ref_after_ns: int) -> None:
        self.wall_ns.append(wall_ns)
        self._ref_ns.append((ref_before_ns + ref_after_ns) / 2.0)

    def time(self, work: Callable[[], T]) -> T:
        """Run *work* as one slice."""
        ref_before = sample_ns()
        started = _clock()
        result = work()
        wall_ns = _clock() - started
        self.add(wall_ns, ref_before, sample_ns())
        return result

    def reference_wall_ns(self) -> List[float]:
        """Per slice: its wall time on the reference host."""
        return to_reference(self.wall_ns, self._ref_ns)


def to_reference(wall_ns: Sequence[float], ref_ns: Sequence[float]) -> List[float]:
    """Scale each slice by the host's slowdown around it: the reference
    loop's time there (median over the neighbouring slices, so that one
    disturbed sample does not mis-scale its slice) over ``REFERENCE_NS``."""
    out = []
    for index, wall in enumerate(wall_ns):
        near = ref_ns[max(0, index - _NEIGHBOURS): index + _NEIGHBOURS + 1]
        out.append(wall * REFERENCE_NS / statistics.median(near))
    return out


def slicewise_wall_s(passes: Sequence[Sequence[float]]) -> float:
    """Reference-host wall seconds of a load window measured by several
    same-seed passes: per slice the median over the passes, summed."""
    if len({len(slices) for slices in passes}) != 1:
        raise ValueError("same-seed passes were cut into different slices")
    return sum(statistics.median(column) for column in zip(*passes)) / 1e9
