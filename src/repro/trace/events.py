"""Trace events: Lamport-stamped, causally-linked structured records.

One :class:`TraceEvent` is emitted per interesting happening (a timer
firing, a record entering the buffer, a commit point, a lost message...).
Events carry:

- ``eid``: a process-wide sequence number, assigned in emission order --
  with a deterministic simulator it is itself deterministic;
- ``at``: the virtual time of the event;
- ``lamport``: a Lamport clock per attributed node, advanced past every
  causal parent, so a topological sort of the causal graph is recoverable
  from the export alone;
- ``parents``: eids of the events that *happened-before* this one (the
  sender's event that caused the message a handler runs for -- a
  cross-node edge, one hop -- the enclosing timer fire, the timer arming
  context for a fire, a lost message's cause for its drop).

Serialization is strictly deterministic: sorted keys, compact separators,
and a ``str()`` fallback for protocol objects (viewstamps, aids) whose
``__str__`` is already stable.
"""

from __future__ import annotations

import dataclasses
import json
from collections import deque
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Catalog of event kinds the instrumentation can emit.  ``python -m
#: repro.trace check-docs`` asserts each name is documented in
#: docs/TRACING.md, so adding a kind here without documenting it fails CI.
EVENT_KINDS: Dict[str, str] = {
    # network plane (net/network.py); a send or a delivery is no event: the
    # message carries its cause (repro.trace.tracer, DESIGN.md D22)
    "msg_drop": "the network dropped a message (crash/partition/loss)",
    # kernel / node (sim/node.py, repro.faults)
    "timer_fire": "a node-scoped timer callback ran",
    "node_crash": "a node fail-stopped",
    "node_recover": "a crashed node came back up",
    "partition": "the network split into blocks",
    "heal": "partitions and failed links were repaired",
    "fault": "a FaultController action executed",
    # replication core (core/cohort.py, core/view_change.py)
    "record_added": "an event record entered a cohort's history",
    "batch_flush": "a batched-mode flush tick shipped coalesced BufferMsgs",
    "ack_coalesce": "a backup sent one cumulative ack covering several BufferMsgs",
    "primary_activated": "a cohort became the active primary of a view",
    "newview_installed": "an underling installed a newview record",
    "view_manager": "a cohort became view manager and sent invites",
    "invite_accepted": "a cohort accepted an invitation (underling)",
    "view_formed": "a manager's formation rule produced a view",
    "view_started": "the new primary completed start_view",
    "stable_write_failed": "a cur_viewid stable write failed; the view was refused",
    # remote calls (core/calls.py)
    "call_start": "a remote call was issued",
    "call_reply": "a remote call's reply arrived",
    "call_failed": "a remote call failed (no reply / rejected)",
    # transactions (core/client_role.py, driver.py)
    "txn_submit": "a driver submitted a transaction request",
    "txn_outcome": "a driver learned (or gave up on) an outcome",
    "txn_begin": "the client primary started a transaction program",
    "txn_prepare": "2PC phase one began (prepares sent)",
    "commit_point": "the record that decides a commit became majority-known "
    "(the coordinator's committing record, or a sole participant's committed "
    "record), or the last accept left nobody to put in one",
    "txn_abort": "the coordinator aborted a transaction",
    # participant side of 2PC (core/server_role.py)
    "prepare_decision": "a participant accepted or refused a prepare",
    "commit_applied": "a participant added and forced a committed record",
    "abort_applied": "a participant discarded a transaction locally",
    # sharding (repro.shard, core/client_role.py)
    "shard_route": "a sharded facade routed a request to its owning groups",
    "shard_prepare": "a cross-group prepare went out to one participant",
    "shard_commit": "a cross-group commit point covering many participants",
    # read serving path (repro.reads.serving)
    "lease_grant": "a primary's read lease became valid (quorum of grants)",
    "lease_expire": "a primary's read lease lapsed or was surrendered",
    "lease_read": "a leased primary served a linearizable local read",
    "lease_wait": "a new primary deferred activation past a lease bound",
    "stale_read": "a backup served a stale-bounded read from its prefix",
    # geo routing (repro.geo, driver.py)
    "geo_route": "a sited driver routed a read to its nearest serving replica",
    # cohort scaling (repro.scale.gossip / ack_tree / witness)
    "gossip_relay": "a heartbeat carried relayed liveness evidence to gossip peers",
    "ack_tree": "an interior backup forwarded its subtree's aggregated buffer acks",
    "witness_vote": "a witness accepted an invitation without viewstamp evidence",
}


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


@dataclasses.dataclass(slots=True)
class TraceEvent:
    """One structured event in the causal record of a run.

    Built on the armed hot path, so it is a plain slots class (seven
    stores to construct, not frozen); treat instances as immutable."""

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


def causal_ancestry(
    lookup: Callable[[int], Optional[TraceEvent]], eid: int, limit: int
) -> List[TraceEvent]:
    """Breadth-first walk of *eid*'s causal ancestry, at most *limit*
    events, in eid order.  *lookup* answers None for an event that is gone
    (evicted from the ring, or outside the export)."""
    frontier = deque([eid])
    seen = set()
    collected: List[TraceEvent] = []
    while frontier and len(collected) < limit:
        current = frontier.popleft()
        if current in seen:
            continue
        seen.add(current)
        event = lookup(current)
        if event is None:
            continue
        collected.append(event)
        frontier.extend(event.parents)
    return sorted(collected, key=lambda event: event.eid)
