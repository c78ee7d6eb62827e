"""The deque-and-dict tracer, frozen as the tracing oracle.

This is ``repro.trace.events.TraceEvent`` and ``repro.trace.tracer.Tracer``
as they stood before the slot ring (PR 13), verbatim: the frozen dataclass
event, the ``deque`` ring with its eid index, the ``msg_id -> send eid`` map
with its prune, and the loop over every monitor.  It exists only so tests
can assert that the slot-ring tracer records exactly the same events;
nothing under ``src/`` may import it.  The reference reads the send of a
delivery from its own map, so it works on envelopes with or without a
``send_eid`` slot.
"""

from __future__ import annotations

import dataclasses
import json
from collections import deque
from typing import Any, Dict, List, Optional, Tuple


def _plain(value: Any) -> Any:
    """JSON-safe, deterministic projection of an event-data value."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (list, tuple, set, frozenset)):
        items = list(value)
        if isinstance(value, (set, frozenset)):
            items = sorted(items, key=str)
        return [_plain(item) for item in items]
    if isinstance(value, dict):
        return {str(key): _plain(item) for key, item in value.items()}
    return str(value)


@dataclasses.dataclass(frozen=True)
class TraceEvent:
    """One structured event in the causal record of a run."""

    eid: int
    at: float
    lamport: int
    node: Optional[str]
    kind: str
    data: Dict[str, Any]
    parents: Tuple[int, ...]

    def to_json_dict(self) -> dict:
        return {
            "eid": self.eid,
            "at": self.at,
            "lamport": self.lamport,
            "node": self.node,
            "kind": self.kind,
            "parents": list(self.parents),
            "data": _plain(self.data),
        }

    def to_json_line(self) -> str:
        return json.dumps(
            self.to_json_dict(), sort_keys=True, separators=(",", ":")
        )

    @classmethod
    def from_json_dict(cls, doc: dict) -> "TraceEvent":
        return cls(
            eid=doc["eid"],
            at=doc["at"],
            lamport=doc["lamport"],
            node=doc.get("node"),
            kind=doc["kind"],
            data=doc.get("data", {}),
            parents=tuple(doc.get("parents", ())),
        )

    def render(self) -> str:
        """One human-readable line (used by the CLI and violation reports)."""
        fields = " ".join(
            f"{key}={_plain(value)!r}" for key, value in sorted(self.data.items())
        )
        where = self.node if self.node is not None else "-"
        return (
            f"#{self.eid} t={self.at:.3f} L{self.lamport} "
            f"{where} {self.kind} {fields}".rstrip()
        )


#: Cap on the msg_id -> send-eid map.  In-flight messages are short-lived
#: (delays are bounded), so entries this old are long settled; pruning the
#: oldest half by insertion order (= msg_id order) is deterministic.
_MSG_MAP_LIMIT = 131_072


class Tracer:
    """Collects :class:`TraceEvent` records into a bounded ring."""

    def __init__(self, sim, config):
        self.sim = sim
        self.config = config
        self.ring_size = max(1, int(config.ring_size))
        self._ring: deque = deque()
        self._index: Dict[int, TraceEvent] = {}
        self._next_eid = 0
        self._clocks: Dict[str, int] = {}
        self._context: List[int] = []
        self._msg_sends: Dict[int, int] = {}
        self._monitors: list = []
        self.events_emitted = 0
        self.events_evicted = 0

    # -- monitors ---------------------------------------------------------

    def install_monitors(self, monitors) -> None:
        """Attach monitor instances; each sees every event as it is emitted."""
        self._monitors.extend(monitors)

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
        self._next_eid += 1
        eid = self._next_eid
        context = self._context
        if context:
            top = context[-1]
            if top not in parents:
                parents = parents + (top,)
        clock_key = node if node is not None else ""
        lamport = self._clocks.get(clock_key, 0)
        index = self._index
        for parent_id in parents:
            parent = index.get(parent_id)
            if parent is not None and parent.lamport > lamport:
                lamport = parent.lamport
        lamport += 1
        self._clocks[clock_key] = lamport
        event = TraceEvent(
            eid=eid,
            at=self.sim.now,
            lamport=lamport,
            node=node,
            kind=kind,
            data=data,
            parents=parents,
        )
        self._ring.append(event)
        index[eid] = event
        if len(self._ring) > self.ring_size:
            evicted = self._ring.popleft()
            del index[evicted.eid]
            self.events_evicted += 1
        self.events_emitted += 1
        for monitor in self._monitors:
            monitor.on_event(event, self)
        return eid

    # -- causal context ---------------------------------------------------

    def push(self, eid: int) -> None:
        self._context.append(eid)

    def pop(self) -> None:
        self._context.pop()

    def current(self) -> Optional[int]:
        return self._context[-1] if self._context else None

    # -- network hooks (called by Network when tracer is not None) --------

    def on_send(self, envelope) -> int:
        eid = self._emit(
            "msg_send",
            envelope.source,
            (),
            {
                "msg_id": envelope.msg_id,
                "src": envelope.source,
                "dst": envelope.destination,
                "type": envelope.payload.msg_type,
            },
        )
        sends = self._msg_sends
        sends[envelope.msg_id] = eid
        if len(sends) > _MSG_MAP_LIMIT:
            for key in list(sends)[: _MSG_MAP_LIMIT // 2]:
                del sends[key]
        return eid

    def on_drop(self, envelope, reason: str, node: Optional[str]) -> int:
        send_eid = self._msg_sends.get(envelope.msg_id)
        parents = (send_eid,) if send_eid is not None else ()
        return self._emit(
            "msg_drop",
            node,
            parents,
            {
                "msg_id": envelope.msg_id,
                "src": envelope.source,
                "dst": envelope.destination,
                "type": envelope.payload.msg_type,
                "reason": reason,
            },
        )

    def on_deliver(self, envelope) -> int:
        send_eid = self._msg_sends.get(envelope.msg_id)
        parents = (send_eid,) if send_eid is not None else ()
        return self._emit(
            "msg_deliver",
            envelope.destination,
            parents,
            {
                "msg_id": envelope.msg_id,
                "src": envelope.source,
                "dst": envelope.destination,
                "type": envelope.payload.msg_type,
                "sent": send_eid is not None,
            },
        )

    # -- Simulator.trace adapter ------------------------------------------

    def on_sim_trace(self, at: float, kind: str, data: dict) -> None:
        """Bridge for the kernel's lightweight ``sim.trace`` hook (crashes,
        recoveries, partitions, fault-controller actions)."""
        self._emit(kind, data.get("node"), (), dict(data))

    # -- inspection & export ----------------------------------------------

    def events(self) -> List[TraceEvent]:
        """Ring contents, oldest first."""
        return list(self._ring)

    def get(self, eid: int) -> Optional[TraceEvent]:
        return self._index.get(eid)

    def causal_slice(self, eid: int, limit: int = 50) -> List[TraceEvent]:
        """The minimal explanation of *eid*: a breadth-first walk of its
        causal ancestry (still in the ring), at most *limit* events,
        returned in eid order."""
        frontier = deque([eid])
        seen = set()
        collected: List[TraceEvent] = []
        while frontier and len(collected) < limit:
            current = frontier.popleft()
            if current in seen:
                continue
            seen.add(current)
            event = self._index.get(current)
            if event is None:
                continue  # evicted from the ring
            collected.append(event)
            frontier.extend(event.parents)
        return sorted(collected, key=lambda event: event.eid)

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
            f"Tracer(emitted={self.events_emitted}, ring={len(self._ring)}/"
            f"{self.ring_size}, monitors={len(self._monitors)})"
        )
