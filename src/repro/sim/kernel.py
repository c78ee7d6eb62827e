"""The discrete-event simulator: a virtual clock over an event heap.

Events are ``(time, sequence)``-ordered callbacks.  The sequence number makes
execution order total and deterministic even when many events share a
timestamp, which is common in protocol simulations (e.g. a broadcast fanning
out with identical delays).

Hot-path notes (see docs/PERF.md):

- Heap entries are plain ``(when, seq, callback, arg)`` tuples so ``heapq``
  compares them in C; ``(when, seq)`` is a strict total order, so nothing
  past it is ever compared.  :meth:`Simulator.post` pushes the callback
  and its one argument and allocates nothing else: a delivery or a process
  resume hands its handle to nobody.  :meth:`Simulator.schedule` is for the
  callers that keep the handle: its entry is ``(when, seq, None, timer)``
  and the callback lives on the :class:`Timer`, where ``cancel`` can drop it.
- Cancellation is lazy.  ``Timer.cancel`` tombstones the entry where it sits;
  the tombstone is skipped when popped.  When tombstones dominate the heap a
  periodic compaction rebuilds it, so a workload that schedules-and-cancels
  in a loop (retransmission timers, probe timeouts) cannot grow the heap
  without bound.  Compaction is triggered purely by event/cancel counts, so
  it is deterministic.
- The kernel keeps cheap integer perf counters (timers created/cancelled,
  compactions, peak heap size) and accumulates wall-clock time spent inside
  :meth:`run`; ``vrbench`` reads them through :meth:`Simulator.perf_counters`.
"""

from __future__ import annotations

import gc
import heapq
import time
from typing import Any, Callable, Optional

from repro.sim.errors import SchedulingInPastError, SimulationLimitExceeded
from repro.sim.rng import SeededRng


#: Allocations (net of frees) between two passes of CPython's youngest
#: cyclic-collector generation once a ``Simulator`` exists.  Above every burst
#: seen between two 1000-event slices (a backup applying a 468-record
#: ``BufferMsg``, 640 clients resolving in one tick), low enough that the
#: tier-1 suite's peak RSS stays under 160 MB.  docs/PERF.md, *Collector
#: cost*, has the sensitivity table behind the number.
GC_GEN0_THRESHOLD = 50_000


def _relax_collector() -> None:
    """Raise this process's gen-0 collection threshold to the constant above.

    A run's steady state creates no reference cycles
    (tests/sim/test_acyclic_steady_state.py), so the default threshold of
    700 has the collector walk the live heap every ~75 events to find
    nothing.  It is still on and still collects, later.  The policy only
    ever relaxes: a threshold already higher is kept, gen-1 and gen-2 are
    not touched, and a collector someone disabled (``gc.disable()``, or a
    gen-0 threshold of 0) stays disabled.  It is process-wide because
    callers drive :meth:`Simulator.step` themselves, so there is no run to
    scope it to.
    """
    gen0, gen1, gen2 = gc.get_threshold()
    if 0 < gen0 < GC_GEN0_THRESHOLD:
        gc.set_threshold(GC_GEN0_THRESHOLD, gen1, gen2)


def _collector_totals() -> tuple[tuple[int, ...], int]:
    """(collections per generation, unreachable objects found) so far."""
    stats = gc.get_stats()
    return (
        tuple(generation["collections"] for generation in stats),
        sum(generation["collected"] + generation["uncollectable"] for generation in stats),
    )


class Timer:
    """A handle to a scheduled event.  ``cancel()`` prevents it from firing."""

    __slots__ = ("when", "_callback", "_args", "cancelled", "_sim")

    def __init__(
        self,
        when: float,
        callback: Callable,
        args: tuple,
        sim: Optional["Simulator"] = None,
    ):
        self.when = when
        self._callback = callback
        self._args = args
        self.cancelled = False
        self._sim = sim

    def cancel(self) -> None:
        """Prevent the timer from firing.  Safe to call more than once."""
        if self.cancelled:
            return
        self.cancelled = True
        # Drop references so cancelled-but-still-heaped timers don't pin
        # protocol state (cohorts, messages) in memory.
        self._callback = None
        self._args = ()
        if self._sim is not None:
            self._sim._on_timer_cancelled()

    @property
    def active(self) -> bool:
        return not self.cancelled


class Simulator:
    """Deterministic discrete-event scheduler with a virtual clock.

    Constructing one raises the *process's* gen-0 threshold of CPython's
    cyclic collector (:func:`_relax_collector`; there is no setting).  It
    cannot reach simulated behaviour -- nothing in ``repro`` has a
    ``__del__``, a ``weakref`` or an ``id()``-keyed table -- and what it
    costs is that cyclic garbage made by *other* code (a dropped
    ``Runtime``, say) lingers for at most ``GC_GEN0_THRESHOLD`` allocations
    instead of 700; loops that drop whole runtimes call ``gc.collect()``.

    Parameters
    ----------
    seed:
        Seed for the root random stream; all simulation randomness must be
        drawn from :attr:`rng` or streams forked from it.
    max_events:
        Safety valve: :meth:`run` raises
        :class:`~repro.sim.errors.SimulationLimitExceeded` after this many
        events, which turns protocol livelocks into crisp test failures.
    compact_threshold:
        Rebuild the heap once at least this many cancelled timers are
        pending *and* they make up at least half the heap.  ``0`` disables
        compaction (pure lazy cancellation, the pre-optimization behaviour);
        event ordering is identical either way.
    """

    def __init__(
        self,
        seed: int | str = 0,
        max_events: int = 5_000_000,
        compact_threshold: int = 1024,
    ):
        _relax_collector()
        self._gc_at_start = _collector_totals()
        self.rng = SeededRng(seed)
        self.max_events = max_events
        self.compact_threshold = compact_threshold
        #: Current virtual time (a plain attribute: it is read on every hop).
        self.now = 0.0
        self._seq = 0
        self._heap: list[tuple[float, int, Optional[Callable], Any]] = []
        self._events_processed = 0
        self._cancelled_pending = 0
        self._timers_created = 0
        self._timers_cancelled = 0
        self._heap_compactions = 0
        self._peak_heap = 0
        self._wall_seconds = 0.0
        # Attachment point for repro.trace: None keeps every instrumented
        # call site (Node.set_timer, Network.send/_deliver) on its fast
        # path -- one attribute load and an ``is None`` test.  The kernel
        # loop itself never consults it.
        self.tracer = None

    @property
    def events_processed(self) -> int:
        return self._events_processed

    # -- perf counters ----------------------------------------------------

    @property
    def timers_created(self) -> int:
        return self._timers_created

    @property
    def timers_cancelled(self) -> int:
        """Timers cancelled before firing (fired timers are not counted)."""
        return self._timers_cancelled

    @property
    def heap_compactions(self) -> int:
        return self._heap_compactions

    @property
    def peak_heap_size(self) -> int:
        """High-water mark of pending heap entries, tombstones included."""
        return self._peak_heap

    @property
    def wall_seconds(self) -> float:
        """Cumulative wall-clock time spent inside :meth:`run`."""
        return self._wall_seconds

    def perf_counters(self) -> dict:
        """Kernel counters as a plain dict (consumed by ``vrbench``).

        ``gc_collections`` (per generation) and ``gc_unreachable`` are the
        *process's* cyclic-collector activity since this simulator was
        built: host facts like ``wall_seconds``, not simulated ones.  A
        fault-free run that reports a non-zero ``gc_unreachable`` has grown
        a reference cycle on its hot path.
        """
        collections, unreachable = _collector_totals()
        collections_at_start, unreachable_at_start = self._gc_at_start
        return {
            "events_processed": self._events_processed,
            "timers_created": self._timers_created,
            "timers_cancelled": self._timers_cancelled,
            "heap_compactions": self._heap_compactions,
            "peak_heap_size": self._peak_heap,
            "pending": len(self._heap),
            "wall_seconds": self._wall_seconds,
            "gc_collections": [
                now - start for now, start in zip(collections, collections_at_start)
            ],
            "gc_unreachable": unreachable - unreachable_at_start,
        }

    # -- scheduling -------------------------------------------------------

    def schedule(self, delay: float, callback: Callable, *args: Any) -> Timer:
        """Run ``callback(*args)`` after *delay* units of virtual time."""
        timer = Timer(self.now + delay, callback, args, self)
        self._push(delay, None, timer)
        return timer

    def post(self, delay: float, callback: Callable, arg: Any) -> None:
        """Run ``callback(arg)`` after *delay*, with no handle to cancel it by."""
        if callback is None:
            raise TypeError("post() needs a callable; schedule() gives a handle")
        self._push(delay, callback, arg)

    def _push(self, delay: float, callback: Optional[Callable], arg: Any) -> None:
        # The heap's private encoding: a None callback marks *arg* as the
        # Timer handle that holds the real callback (and may be cancelled).
        if delay < 0:
            raise SchedulingInPastError(f"negative delay {delay!r}")
        self._seq += 1
        heap = self._heap
        heapq.heappush(heap, (self.now + delay, self._seq, callback, arg))
        self._timers_created += 1
        if len(heap) > self._peak_heap:
            self._peak_heap = len(heap)

    def call_soon(self, callback: Callable, *args: Any) -> Timer:
        """Run ``callback(*args)`` at the current time, after pending events."""
        return self.schedule(0.0, callback, *args)

    def _on_timer_cancelled(self) -> None:
        self._timers_cancelled += 1
        self._cancelled_pending += 1
        threshold = self.compact_threshold
        if (
            threshold
            and self._cancelled_pending >= threshold
            and self._cancelled_pending * 2 >= len(self._heap)
        ):
            self._compact()

    def _compact(self) -> None:
        """Drop tombstoned entries and re-heapify.  Pop order is preserved
        because ``(when, seq)`` keys are unique.  Mutates the heap list in
        place: cancel() can run mid-callback while run()/step() hold a
        reference to the same list."""
        heap = self._heap
        heap[:] = [
            entry for entry in heap if entry[2] is not None or not entry[3].cancelled
        ]
        heapq.heapify(heap)
        self._cancelled_pending = 0
        self._heap_compactions += 1

    # -- execution --------------------------------------------------------

    def step(self) -> bool:
        """Process the single next event.  Returns False if the heap is empty."""
        heap = self._heap
        pop = heapq.heappop
        while heap:
            when, _seq, callback, arg = pop(heap)
            if callback is None and arg.cancelled:
                self._cancelled_pending -= 1
                continue
            self.now = when
            self._events_processed += 1
            if self._events_processed > self.max_events:
                raise SimulationLimitExceeded(
                    f"exceeded {self.max_events} events at t={when:.3f}"
                )
            if callback is not None:
                callback(arg)
                return True
            # A kept handle: consume it (a fired timer is not a cancellation
            # and must not count as one) and drop what it would pin.
            callback, args = arg._callback, arg._args
            arg.cancelled = True
            arg._callback = None
            arg._args = ()
            callback(*args)
            return True
        return False

    def run(self, until: Optional[float] = None) -> float:
        """Run until the heap empties or the clock passes *until*.

        Returns the final virtual time.  With ``until`` set, the clock is
        advanced exactly to ``until`` even if no event lands on it, so
        back-to-back ``run(until=...)`` calls compose predictably.
        """
        started = time.perf_counter()
        step = self.step
        try:
            if until is None:
                while step():
                    pass
                return self.now
            heap = self._heap
            # step() skips tombstones itself, but one at the head must not
            # let the live event behind it, later than *until*, through.
            while heap:
                head = heap[0]
                if head[2] is None and head[3].cancelled:
                    heapq.heappop(heap)
                    self._cancelled_pending -= 1
                elif head[0] > until:
                    break
                else:
                    step()
            self.now = max(self.now, until)
            return self.now
        finally:
            self._wall_seconds += time.perf_counter() - started

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Simulator(now={self.now:.3f}, pending={len(self._heap)}, "
            f"processed={self._events_processed})"
        )
