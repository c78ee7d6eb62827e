"""The pre-PR-14 event kernel, frozen as the scheduling oracle.

This is ``repro.sim.kernel.Timer`` and ``Simulator`` as they stood before
heap entries carried their own callback: one ``Timer`` per scheduled event,
``(when, seq, timer)`` heap tuples, ``now`` as a property.  It exists only so
``test_kernel_oracle.py`` can assert that the handle-less kernel fires the
same callbacks in the same order with the same counters; nothing under
``src/`` may import it.  ``post`` is the one addition: the old kernel had no
handle-less entry point, so the oracle spells it ``schedule`` and drops the
handle.
"""

from __future__ import annotations

import heapq
import time
from typing import Any, Callable, Optional

from repro.sim.errors import SchedulingInPastError, SimulationLimitExceeded
from repro.sim.rng import SeededRng


class Timer:
    """A handle to a scheduled event.  ``cancel()`` prevents it from firing."""

    __slots__ = ("when", "_seq", "_callback", "_args", "cancelled", "_sim")

    def __init__(
        self,
        when: float,
        seq: int,
        callback: Callable,
        args: tuple,
        sim: Optional["Simulator"] = None,
    ):
        self.when = when
        self._seq = seq
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

    def _fire(self) -> None:
        if not self.cancelled:
            callback, args = self._callback, self._args
            # Consume directly instead of routing through cancel(): a fired
            # timer is not a cancellation and must not count as one.
            self.cancelled = True
            self._callback = None
            self._args = ()
            callback(*args)

    def __lt__(self, other: "Timer") -> bool:
        return (self.when, self._seq) < (other.when, other._seq)


class Simulator:
    """Deterministic discrete-event scheduler with a virtual clock.

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
        self.rng = SeededRng(seed)
        self.max_events = max_events
        self.compact_threshold = compact_threshold
        self._now = 0.0
        self._seq = 0
        self._heap: list[tuple[float, int, Timer]] = []
        self._events_processed = 0
        self._cancelled_pending = 0
        self._timers_created = 0
        self._timers_cancelled = 0
        self._heap_compactions = 0
        self._peak_heap = 0
        self._wall_seconds = 0.0
        self._trace_hooks: list[Callable[[float, str, dict], None]] = []
        # Attachment point for repro.trace: None keeps every instrumented
        # call site (Node.set_timer, Network.send/_deliver) on its fast
        # path -- one attribute load and an ``is None`` test.  The kernel
        # loop itself never consults it.
        self.tracer = None

    # -- clock ------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current virtual time."""
        return self._now

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
        """Kernel counters as a plain dict (consumed by ``vrbench``)."""
        return {
            "events_processed": self._events_processed,
            "timers_created": self._timers_created,
            "timers_cancelled": self._timers_cancelled,
            "heap_compactions": self._heap_compactions,
            "peak_heap_size": self._peak_heap,
            "pending": len(self._heap),
            "wall_seconds": self._wall_seconds,
        }

    # -- scheduling -------------------------------------------------------

    def schedule(self, delay: float, callback: Callable, *args: Any) -> Timer:
        """Run ``callback(*args)`` after *delay* units of virtual time."""
        if delay < 0:
            raise SchedulingInPastError(f"negative delay {delay!r}")
        self._seq += 1
        when = self._now + delay
        timer = Timer(when, self._seq, callback, args, self)
        heapq.heappush(self._heap, (when, self._seq, timer))
        self._timers_created += 1
        if len(self._heap) > self._peak_heap:
            self._peak_heap = len(self._heap)
        return timer

    def post(self, delay: float, callback: Callable, arg: Any) -> None:
        self.schedule(delay, callback, arg)

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
        heap[:] = [entry for entry in heap if not entry[2].cancelled]
        heapq.heapify(heap)
        self._cancelled_pending = 0
        self._heap_compactions += 1

    # -- execution --------------------------------------------------------

    def step(self) -> bool:
        """Process the single next event.  Returns False if the heap is empty."""
        heap = self._heap
        pop = heapq.heappop
        while heap:
            when, _seq, timer = pop(heap)
            if timer.cancelled:
                self._cancelled_pending -= 1
                continue
            self._now = when
            self._events_processed += 1
            if self._events_processed > self.max_events:
                raise SimulationLimitExceeded(
                    f"exceeded {self.max_events} events at t={self._now:.3f}"
                )
            callback, args = timer._callback, timer._args
            timer.cancelled = True
            timer._callback = None
            timer._args = ()
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
        try:
            if until is None:
                step = self.step
                while step():
                    pass
                return self._now
            heap = self._heap
            while heap:
                head = heap[0]
                if head[2].cancelled:
                    heapq.heappop(heap)
                    self._cancelled_pending -= 1
                    continue
                if head[0] > until:
                    break
                self.step()
            self._now = max(self._now, until)
            return self._now
        finally:
            self._wall_seconds += time.perf_counter() - started

    # -- tracing ----------------------------------------------------------

    def add_trace_hook(self, hook: Callable[[float, str, dict], None]) -> None:
        """Register a hook invoked by :meth:`trace` with (time, kind, data)."""
        self._trace_hooks.append(hook)

    def trace(self, kind: str, **data: Any) -> None:
        """Emit a trace record to all registered hooks (no-op without hooks)."""
        for hook in self._trace_hooks:
            hook(self._now, kind, data)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Simulator(now={self._now:.3f}, pending={len(self._heap)}, "
            f"processed={self._events_processed})"
        )
