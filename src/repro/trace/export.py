"""Trace exporters: deterministic JSONL and Chrome ``trace_event`` JSON.

JSONL is the archival format (one event per line, sorted keys, compact
separators): byte-identical across same-seed runs, so tests can compare
exports directly.  The Chrome format targets ``chrome://tracing`` and
Perfetto: every event becomes an instant on its node's timeline (one
"thread" per node) and each cross-node parent edge -- a message's hop, from
the sender's event that caused it to what the receiver did -- becomes a
flow arrow.
"""

from __future__ import annotations

import json
from typing import Iterable, List

from repro.trace.events import TraceEvent, _plain


def jsonl_lines(events: Iterable[TraceEvent]) -> Iterable[str]:
    for event in events:
        yield event.to_json_line()


def write_jsonl(events: Iterable[TraceEvent], path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for line in jsonl_lines(events):
            handle.write(line)
            handle.write("\n")


def read_jsonl(path: str) -> List[TraceEvent]:
    events: List[TraceEvent] = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                events.append(TraceEvent.from_json_dict(json.loads(line)))
    return events


def chrome_trace(events: Iterable[TraceEvent]) -> dict:
    """Chrome ``trace_event`` document: instants + one flow arrow per hop.

    Virtual time units map to microseconds (the viewer's native unit), so
    one simulated time unit reads as 1us on the timeline.
    """
    trace_events: List[dict] = []
    tids: dict = {}
    #: eid -> (tid, ts) of each event placed so far; parents precede their
    #: children, so an edge's source is here when its child is reached
    placed: dict = {}
    hops = 0

    def tid_for(node) -> int:
        key = node if node is not None else "(global)"
        tid = tids.get(key)
        if tid is None:
            tid = len(tids) + 1
            tids[key] = tid
            trace_events.append(
                {
                    "ph": "M",
                    "pid": 1,
                    "tid": tid,
                    "name": "thread_name",
                    "args": {"name": key},
                }
            )
        return tid

    for event in events:
        tid = tid_for(event.node)
        ts = event.at
        args = dict(_plain(event.data))
        args["eid"] = event.eid
        args["lamport"] = event.lamport
        args["parents"] = list(event.parents)
        trace_events.append(
            {
                "ph": "i",
                "s": "t",
                "pid": 1,
                "tid": tid,
                "ts": ts,
                "name": event.kind,
                "cat": "repro",
                "args": args,
            }
        )
        for parent in event.parents:
            source = placed.get(parent)
            if source is None or source[0] == tid:
                continue  # outside the export, or on the same node
            hops += 1
            trace_events.append(
                {
                    "ph": "s",
                    "pid": 1,
                    "tid": source[0],
                    "ts": source[1],
                    "id": hops,
                    "name": "hop",
                    "cat": "hop",
                }
            )
            trace_events.append(
                {
                    "ph": "f",
                    "bp": "e",
                    "pid": 1,
                    "tid": tid,
                    "ts": ts,
                    "id": hops,
                    "name": "hop",
                    "cat": "hop",
                }
            )
        placed[event.eid] = (tid, ts)
    return {"traceEvents": trace_events, "displayTimeUnit": "ms"}


def write_chrome(events: Iterable[TraceEvent], path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(chrome_trace(events), handle, sort_keys=True)
