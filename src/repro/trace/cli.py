"""``python -m repro.trace``: inspect exported traces.

Subcommands::

    timeline FILE [--node N] [--kind K] [--limit M]
        Per-node timeline of a JSONL export.

    chain FILE EID [--limit M]
        The causal chain (ancestry) leading to one event id.

    chrome FILE --out OUT.json
        Convert a JSONL export to Chrome trace_event JSON
        (load in chrome://tracing or https://ui.perfetto.dev).

    monitors
        The invariant-monitor catalog: paper sections and subscribed kinds.
"""

from __future__ import annotations

import argparse
import sys
from typing import Dict, List

from repro.trace.events import TraceEvent, causal_ancestry
from repro.trace.export import read_jsonl, write_chrome
from repro.trace.monitors import MONITORS


def _timeline(args) -> int:
    events = read_jsonl(args.file)
    if args.kind:
        events = [event for event in events if event.kind == args.kind]
    by_node: Dict[str, List[TraceEvent]] = {}
    for event in events:
        node = event.node if event.node is not None else "(global)"
        by_node.setdefault(node, []).append(event)
    nodes = sorted(by_node)
    if args.node:
        if args.node not in by_node:
            print(f"no events for node {args.node!r}; have {nodes}",
                  file=sys.stderr)
            return 1
        nodes = [args.node]
    for node in nodes:
        lane = by_node[node]
        print(f"== {node} ({len(lane)} events) ==")
        shown = lane if args.limit is None else lane[-args.limit:]
        if len(shown) < len(lane):
            print(f"  ... {len(lane) - len(shown)} earlier events elided ...")
        for event in shown:
            print(f"  {event.render()}")
    return 0


def _chain(args) -> int:
    events = {event.eid: event for event in read_jsonl(args.file)}
    if args.eid not in events:
        print(f"event #{args.eid} not in {args.file} "
              f"(ring may have evicted it)", file=sys.stderr)
        return 1
    chain = causal_ancestry(events.get, args.eid, args.limit)
    print(f"causal chain to #{args.eid} ({len(chain)} events):")
    for event in chain:
        marker = "->" if event.eid == args.eid else "  "
        print(f"{marker} {event.render()}")
    return 0


def _chrome(args) -> int:
    events = read_jsonl(args.file)
    write_chrome(events, args.out)
    print(f"wrote {args.out} ({len(events)} events); load in "
          "chrome://tracing or https://ui.perfetto.dev")
    return 0


def _kinds(monitor) -> str:
    if monitor.kinds is None:
        return "(every kind)"
    return ", ".join(monitor.kinds) or "(none)"


def _monitors(_args) -> int:
    for name in sorted(MONITORS):
        monitor = MONITORS[name]
        print(f"{name}  [{monitor.paper}]")
        print(f"    {monitor.description}")
        print(f"    kinds: {_kinds(monitor)}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.trace",
        description="Inspect repro.trace exports.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    timeline = sub.add_parser("timeline", help="per-node timeline")
    timeline.add_argument("file", help="JSONL export")
    timeline.add_argument("--node", default=None)
    timeline.add_argument("--kind", default=None)
    timeline.add_argument("--limit", type=int, default=None,
                          help="last N events per node")
    timeline.set_defaults(fn=_timeline)

    chain = sub.add_parser("chain", help="causal chain to an event id")
    chain.add_argument("file", help="JSONL export")
    chain.add_argument("eid", type=int)
    chain.add_argument("--limit", type=int, default=50)
    chain.set_defaults(fn=_chain)

    chrome = sub.add_parser("chrome", help="convert JSONL to Chrome JSON")
    chrome.add_argument("file", help="JSONL export")
    chrome.add_argument("--out", required=True)
    chrome.set_defaults(fn=_chrome)

    monitors = sub.add_parser("monitors", help="invariant-monitor catalog")
    monitors.set_defaults(fn=_monitors)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except BrokenPipeError:
        # Output piped into head/less that quit early; not an error.
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
