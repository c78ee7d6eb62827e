"""The Tracer: ring-buffered causal event sink owned by a Runtime.

Design constraints (see docs/TRACING.md):

- **Zero-cost when disabled.**  Instrumented hot paths hold a ``tracer``
  attribute that is ``None`` unless tracing was requested at Runtime
  construction; the disabled path pays one attribute load and an ``is
  None`` test.  Nothing here is consulted by the kernel loop itself.
- **Pure observation.**  The tracer draws no randomness and schedules no
  events, so enabling it cannot change what a seeded run computes --
  ledger digests with and without tracing are asserted identical by
  ``python -m repro.gate trace`` and tests/trace.
- **Deterministic.**  Event ids, Lamport stamps, and ring eviction depend
  only on emission order, which the simulator makes deterministic.

Causality is tracked two ways:

- a *context stack*: while a delivery or timer callback runs, its cause
  sits on the stack and becomes an implicit parent of everything emitted
  inside it;
- explicit parents: a timer fire names the event context in which it was
  armed, a drop names its message's cause.

A message is a cause, not an event (DESIGN.md D22).  A send records
nothing: it marks the envelope with the newest event of the sender's frame
(``Envelope.send_eid``), and the delivery pushes that mark as the
receiver's context, so the receiver's events have a cross-node parent whose
``at`` difference is the hop's latency.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.trace.events import EVENT_KINDS, TraceEvent, causal_ancestry

#: Ring cells per event: ``at, lamport, node, kind, data, parents`` (the
#: eid is the slot's position, so it is not stored).
_CELLS = 6
_LAMPORT = 1


class Tracer:
    """Collects :class:`TraceEvent` records into a bounded ring.

    Eids are consecutive, so the ring is one preallocated list in which
    event *eid* owns the ``_CELLS`` cells from ``eid % ring_size * _CELLS``:
    recording an event is one slice store that evicts the oldest, and
    lookup, eviction counts and the Lamport parent check are arithmetic.
    No object is allocated per event beyond the caller's ``data`` dict, so
    the collector never has a ring's worth of events to walk; a
    :class:`TraceEvent` is built when someone asks for one (a subscribed
    monitor, :meth:`get`, :meth:`events`).
    """

    def __init__(self, sim, config):
        self.sim = sim
        self.config = config
        self.ring_size = config.ring_size
        self._cells: list = [None] * (_CELLS * self.ring_size)
        self._next_eid = 0
        self._clocks: Dict[str, int] = {}
        #: the causal context stack, each entry the ready-made ``(eid,)``
        #: that events emitted inside it share as their parents tuple (``()``
        #: for a delivery of a message sent outside any frame)
        self._context: List[Tuple[int, ...]] = []
        #: ``_next_eid`` when each context entry was pushed: a higher eid
        #: was emitted inside that frame
        self._frame_starts: List[int] = []
        self._monitors: list = []
        #: cataloged kind -> bound ``on_event`` of each subscriber, install
        #: order; any other kind reaches the subscribe-to-all list
        self._dispatch: Dict[str, List[Callable]] = {}
        self._catch_all: List[Callable] = []
        #: each monitor's ``on_unsent``, run on a delivery no send marked
        self._unsent: List[Callable] = []

    @property
    def events_emitted(self) -> int:
        return self._next_eid

    @property
    def events_evicted(self) -> int:
        return max(0, self._next_eid - self.ring_size)

    # -- monitors ---------------------------------------------------------

    def install_monitors(self, monitors) -> None:
        """Attach monitor instances.  Each is called for the event kinds
        its ``kinds`` tuple names (``None``: every kind), in install order,
        and its ``on_unsent`` (if any) for every unmarked delivery."""
        monitors = list(monitors)
        for monitor in monitors:
            unknown = sorted(set(monitor.kinds or ()) - set(EVENT_KINDS))
            if unknown:
                raise ValueError(
                    f"monitor {monitor.name!r} subscribes to unknown event "
                    f"kind(s) {unknown}; see repro.trace.events.EVENT_KINDS"
                )
        self._monitors.extend(monitors)
        self._catch_all = [m.on_event for m in self._monitors if m.kinds is None]
        self._dispatch = {
            kind: [
                m.on_event
                for m in self._monitors
                if m.kinds is None or kind in m.kinds
            ]
            for kind in EVENT_KINDS
        }
        self._unsent = [
            m.on_unsent
            for m in self._monitors
            if getattr(m, "on_unsent", None) is not None
        ]

    @property
    def monitors(self) -> tuple:
        return tuple(self._monitors)

    # -- emission ---------------------------------------------------------

    def emit(
        self,
        kind: str,
        node: Optional[str] = None,
        parents: Tuple[int, ...] = (),
        **data: Any,
    ) -> int:
        return self._emit(kind, node, parents, data)

    def _emit(
        self,
        kind: str,
        node: Optional[str],
        parents: Tuple[int, ...],
        data: Dict[str, Any],
    ) -> int:
        """:meth:`emit` without the keyword packing, for the instrumented
        hot paths (``record_added``, ``timer_fire``, drops).  The tracer
        keeps *data* and *parents*; the caller must not reuse them."""
        eid = self._next_eid = self._next_eid + 1
        context = self._context
        if context:
            top = context[-1]
            if not parents:
                parents = top
            elif top and top[0] not in parents:
                parents = parents + top
        clock_key = node or ""
        clocks = self._clocks
        lamport = clocks.get(clock_key, 0)
        cells = self._cells
        size = self.ring_size
        # Parents are read before the store below: the oldest ring entry
        # (eid - ring_size) shares this event's slot and still counts.
        oldest = eid - size
        for parent_id in parents:
            if oldest <= parent_id < eid and parent_id > 0:
                seen = cells[parent_id % size * _CELLS + _LAMPORT]
                if seen > lamport:
                    lamport = seen
        lamport += 1
        clocks[clock_key] = lamport
        at = self.sim.now
        start = eid % size * _CELLS
        cells[start:start + _CELLS] = (at, lamport, node, kind, data, parents)
        handlers = self._dispatch.get(kind, self._catch_all)
        if handlers:
            event = TraceEvent(eid, at, lamport, node, kind, data, parents)
            for on_event in handlers:
                on_event(event, self)
        return eid

    # -- causal context ---------------------------------------------------

    def push(self, eid: int) -> None:
        self._context.append((eid,))
        self._frame_starts.append(self._next_eid)

    def pop(self) -> None:
        self._context.pop()
        self._frame_starts.pop()

    def current(self) -> Optional[int]:
        context = self._context
        return context[-1][0] if context and context[-1] else None

    # -- network hooks (called by Network when tracer is not None) --------
    # The cause rides on the envelope (``Envelope.send_eid``): no side
    # table to bound, and a slow message cannot outlive its entry.

    def on_send(self, envelope) -> None:
        """Mark *envelope* with its cause and record nothing: the newest
        event emitted in the sender's frame, else that frame's cause, else
        ``0`` (sent outside any frame).  ``None`` stays "never sent"."""
        context = self._context
        if not context:
            envelope.send_eid = 0
        elif self._next_eid > self._frame_starts[-1]:
            envelope.send_eid = self._next_eid
        else:
            top = context[-1]
            envelope.send_eid = top[0] if top else 0

    def on_drop(self, envelope, reason: str, node: Optional[str]) -> int:
        cause = envelope.send_eid
        return self._emit(
            "msg_drop",
            node,
            (cause,) if cause else (),
            {
                "msg_id": envelope.msg_id,
                "src": envelope.source,
                "dst": envelope.destination,
                "type": envelope.payload.msg_type,
                "reason": reason,
            },
        )

    def on_deliver(self, envelope) -> None:
        """Push the envelope's cause as the receiver's context; the network
        pops it once the destination's handler returns.  An envelope no
        send marked goes to every ``on_unsent`` first (``phantom_delivery``
        raises there, before anything is pushed)."""
        cause = envelope.send_eid
        if cause is None:
            for on_unsent in self._unsent:
                on_unsent(envelope, self)
        self._context.append((cause,) if cause else ())
        self._frame_starts.append(self._next_eid)

    # -- inspection & export ----------------------------------------------

    def events(self) -> List[TraceEvent]:
        """Ring contents, oldest first."""
        newest = self._next_eid
        oldest = max(1, newest - self.ring_size + 1)
        return [self.get(eid) for eid in range(oldest, newest + 1)]

    def get(self, eid: int) -> Optional[TraceEvent]:
        newest = self._next_eid
        if not max(0, newest - self.ring_size) < eid <= newest:
            return None  # never issued, or evicted from the ring
        start = eid % self.ring_size * _CELLS
        return TraceEvent(eid, *self._cells[start:start + _CELLS])

    def causal_slice(self, eid: int, limit: int = 50) -> List[TraceEvent]:
        """The minimal explanation of *eid*: a breadth-first walk of its
        causal ancestry (still in the ring), at most *limit* events,
        returned in eid order."""
        return causal_ancestry(self.get, eid, limit)

    def export_jsonl(self, path: str) -> None:
        from repro.trace.export import write_jsonl

        write_jsonl(self.events(), path)

    def export_chrome(self, path: str) -> None:
        from repro.trace.export import write_chrome

        write_chrome(self.events(), path)

    def maybe_export(self) -> Optional[str]:
        """Honour ``TraceConfig.export_path``: ``.json`` means Chrome
        ``trace_event`` format, anything else JSONL.  Returns the path
        written, or None."""
        path = self.config.export_path
        if not path:
            return None
        if path.endswith(".json"):
            self.export_chrome(path)
        else:
            self.export_jsonl(path)
        return path

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Tracer(emitted={self.events_emitted}, ring="
            f"{self.events_emitted - self.events_evicted}/"
            f"{self.ring_size}, monitors={len(self._monitors)})"
        )
