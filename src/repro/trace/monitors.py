"""Online protocol-invariant monitors over the trace event stream.

Each monitor encodes one invariant from the paper's correctness argument
and checks it *while the run executes*, not post hoc.  A violation raises
:class:`InvariantViolation` -- an ``AssertionError`` subclass, so the
gate's failure handling (:func:`repro.gate.state_run`) catches it --
carrying the minimal causal slice (<= 50 events) that explains the
offending event.

All monitors are false-positive-free on legitimate runs:

- ``viewstamp_monotonic``: within one view, a cohort's applied timestamps
  strictly increase.  A crashed-and-recovered backup legitimately re-applies
  a view from ts=1 after re-installing its newview record, so the per-key
  watermark resets on ``newview_installed``.
- ``single_primary``: viewids are globally unique (counter paired with the
  minting manager's mid), so at most one cohort may ever activate as the
  primary of a given viewid.  Re-activation by the *same* cohort (duplicate
  init-view) is allowed.
- ``quorum_intersection``: every formed view contains a majority of the
  configuration; any two majorities of one configuration intersect, so
  consecutive formed views must share a member (section 4's "the new
  primary knows at least as much as any backup" rests on this).
- ``commit_quorum``: at a commit point, the committing record's timestamp
  must be acknowledged by at least a sub-majority of backups (which, with
  the primary, is a majority of the configuration) -- section 3.7's "no
  commit without the committing record being majority-known".
- ``phantom_delivery``: every delivery must correspond to a send the
  network actually performed (section 3.1's delivery-system assumption).
  A message is no event, so it subscribes to no kind: the tracer hands it
  each delivery whose envelope no send marked, before the handler runs.
- ``stale_lease``: once a primary of a newer view has committed a write,
  no leased read may be served under an older view -- the lease protocol's
  activation deferral (docs/READS.md) exists precisely to make any such
  overlap impossible.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Dict, FrozenSet, Optional, Tuple

from repro.core.quorum import Quorums
from repro.trace.events import TraceEvent

#: Quorums of a config_size in event data (witnesses move neither size read)
_quorums = lru_cache(maxsize=None)(Quorums)


class InvariantViolation(AssertionError):
    """A protocol invariant was violated; carries the causal evidence."""

    def __init__(self, monitor: str, message: str, event, causal_slice):
        self.monitor = monitor
        self.message = message
        self.event = event
        self.causal_slice = list(causal_slice)
        super().__init__(self._render())

    def _render(self) -> str:
        lines = [
            f"[{self.monitor}] {self.message}",
            f"violating event: {self.event.render()}",
            f"causal slice ({len(self.causal_slice)} events):",
        ]
        lines.extend(f"  {event.render()}" for event in self.causal_slice)
        return "\n".join(lines)


class InvariantMonitor:
    """Base class: subscribe to event kinds, assert one invariant.

    The tracer calls ``on_event(event, tracer)`` only for events whose kind
    is in ``kinds``, exactly once each; a subclass that leaves ``kinds``
    as ``None`` sees every event.  A subclass that defines ``on_unsent``
    is also called, as ``on_unsent(envelope, tracer)``, at every delivery
    whose envelope no send marked, before the handler runs."""

    #: registry key and violation label
    name = "invariant"
    #: paper section(s) the invariant comes from
    paper = ""
    description = ""
    #: the event kinds (names from ``EVENT_KINDS``) this monitor consumes
    kinds: Optional[Tuple[str, ...]] = None
    #: see the class docstring; None: never called
    on_unsent: Optional[Callable] = None

    def on_event(self, event, tracer) -> None:
        raise NotImplementedError

    def fail(self, tracer, event, message: str) -> None:
        raise InvariantViolation(
            self.name, message, event, tracer.causal_slice(event.eid, limit=50)
        )


class ViewstampMonotonicMonitor(InvariantMonitor):
    name = "viewstamp_monotonic"
    paper = "§2, §3.4"
    description = (
        "per (group, viewid, cohort), applied record timestamps strictly "
        "increase; the watermark resets when a newview is (re)installed"
    )
    kinds = ("record_added", "newview_installed")

    def __init__(self):
        self._last_ts: Dict[Tuple[str, str, int], int] = {}

    def on_event(self, event, tracer) -> None:
        data = event.data
        key = (data["group"], data["viewid"], data["mid"])
        if event.kind == "newview_installed":
            self._last_ts[key] = 1  # the newview record itself is ts=1
            return
        ts = data["ts"]
        last = self._last_ts.get(key)
        if last is not None and ts <= last:
            self.fail(
                tracer,
                event,
                f"timestamp regression in {data['group']} view "
                f"{data['viewid']} at cohort {data['mid']}: "
                f"{last} -> {ts}",
            )
        self._last_ts[key] = ts


class SinglePrimaryMonitor(InvariantMonitor):
    name = "single_primary"
    paper = "§4.1"
    description = (
        "at most one cohort ever activates as the primary of a given "
        "(group, viewid); viewids are globally unique by construction"
    )
    kinds = ("primary_activated",)

    def __init__(self):
        self._primary: Dict[Tuple[str, str], int] = {}

    def on_event(self, event, tracer) -> None:
        data = event.data
        key = (data["group"], data["viewid"])
        mid = data["mid"]
        holder = self._primary.setdefault(key, mid)
        if holder != mid:
            self.fail(
                tracer,
                event,
                f"two primaries in {data['group']} view {data['viewid']}: "
                f"cohort {holder} already activated, now cohort {mid}",
            )


class QuorumIntersectionMonitor(InvariantMonitor):
    name = "quorum_intersection"
    paper = "§4, §4.1"
    description = (
        "every formed view is a majority of the configuration and therefore "
        "intersects the previously formed view of the group"
    )
    kinds = ("view_formed",)

    def __init__(self):
        self._previous: Dict[str, Tuple[str, FrozenSet[int]]] = {}

    def on_event(self, event, tracer) -> None:
        data = event.data
        group = data["group"]
        members = frozenset(data["members"])
        config_size = data["config_size"]
        formation = _quorums(config_size).formation
        if len(members) < formation:
            self.fail(
                tracer,
                event,
                f"view {data['viewid']} of {group} formed with "
                f"{len(members)} members; majority of {config_size} is "
                f"{formation}",
            )
        previous = self._previous.get(group)
        if previous is not None and not (members & previous[1]):
            self.fail(
                tracer,
                event,
                f"view {data['viewid']} of {group} (members "
                f"{sorted(members)}) does not intersect previously formed "
                f"view {previous[0]} (members {sorted(previous[1])})",
            )
        self._previous[group] = (data["viewid"], members)


class CommitQuorumMonitor(InvariantMonitor):
    name = "commit_quorum"
    paper = "§3.3, §3.7"
    description = (
        "at a commit point the deciding record's timestamp (the coordinator's "
        "committing record, or a sole participant's committed record) is acked "
        "by a sub-majority of backups (with the primary, a majority knows it); "
        "only a commit with an empty plist may go unforced"
    )
    kinds = ("commit_point",)

    def on_event(self, event, tracer) -> None:
        data = event.data
        force_ts = data["force_ts"]
        if force_ts is None:
            # No committing record: sound only when phase two has nobody to
            # tell, because every participant committed itself at prepare.
            if data["plist"]:
                self.fail(
                    tracer,
                    event,
                    f"commit of {data['aid']} without a forced committing "
                    f"record, with {data['plist']} still to be told",
                )
            return
        config_size = data["config_size"]
        satisfied = sum(
            1 for acked_ts in data["acked"].values() if acked_ts >= force_ts
        )
        needed = _quorums(config_size).force
        if satisfied < needed:
            self.fail(
                tracer,
                event,
                f"commit of {data['aid']} at force_ts={force_ts} with only "
                f"{satisfied} backup ack(s); sub-majority of {config_size} "
                f"is {needed}",
            )


class PhantomDeliveryMonitor(InvariantMonitor):
    name = "phantom_delivery"
    paper = "§3.1"
    description = (
        "every delivered message corresponds to a send the network "
        "performed; checked at the delivery, off the envelope's cause mark"
    )
    kinds = ()

    def on_unsent(self, envelope, tracer) -> None:
        # The refused delivery is in no ring, so its slice is empty: nothing
        # caused a message that nobody sent.
        data = {
            "msg_id": envelope.msg_id,
            "src": envelope.source,
            "dst": envelope.destination,
            "type": envelope.payload.msg_type,
        }
        delivery = TraceEvent(
            0, tracer.sim.now, 0, envelope.destination, "delivery", data, ()
        )
        self.fail(
            tracer,
            delivery,
            f"message {envelope.msg_id} ({data['type']}) delivered to "
            f"{envelope.destination} but was never sent",
        )


class StaleLeaseMonitor(InvariantMonitor):
    name = "stale_lease"
    paper = "beyond the paper (docs/READS.md)"
    description = (
        "no leased read is served under a view older than one whose "
        "primary has already committed a write (no committed write is "
        "concurrent with a stale lease serving reads)"
    )
    kinds = ("record_added", "lease_read")

    def __init__(self):
        # group -> (viewid tuple, viewid str) of the newest view in which
        # a primary committed a write
        self._commit_view: Dict[str, Tuple[Tuple[int, int], str]] = {}

    @staticmethod
    def _parse_viewid(viewid: str) -> Tuple[int, int]:
        # "v{cnt}.{mid}" -- parse for ordering (cnt first, mid breaks ties)
        cnt, _, mid = viewid[1:].partition(".")
        return (int(cnt), int(mid))

    def on_event(self, event, tracer) -> None:
        data = event.data
        if event.kind == "record_added":
            if data.get("rtype") == "Committed" and data.get("role") == "primary":
                group, viewid = data["group"], data["viewid"]
                current = self._commit_view.get(group)
                # same label as the newest committing view: nothing to parse
                if current is None or viewid != current[1]:
                    parsed = self._parse_viewid(viewid)
                    if current is None or parsed > current[0]:
                        self._commit_view[group] = (parsed, viewid)
            return
        group = data["group"]
        newest = self._commit_view.get(group)
        if newest is None:
            return
        served = self._parse_viewid(data["viewid"])
        if served < newest[0]:
            self.fail(
                tracer,
                event,
                f"leased read in {group} served under view {data['viewid']} "
                f"after a primary of view {newest[1]} committed a write: a "
                f"stale lease is serving reads concurrent with committed "
                f"writes",
            )


#: name -> monitor class; ``TraceConfig.monitors`` selects by name.
MONITORS = {
    monitor.name: monitor
    for monitor in (
        ViewstampMonotonicMonitor,
        SinglePrimaryMonitor,
        QuorumIntersectionMonitor,
        CommitQuorumMonitor,
        PhantomDeliveryMonitor,
        StaleLeaseMonitor,
    )
}


def build_monitors(spec) -> list:
    """Instantiate monitors from a ``TraceConfig.monitors`` value: the
    string ``"all"``, or an iterable of registry names."""
    if spec == "all":
        names = list(MONITORS)
    else:
        names = list(spec)
    unknown = sorted(set(names) - set(MONITORS))
    if unknown:
        raise ValueError(
            f"unknown monitor(s) {unknown}; known: {sorted(MONITORS)}"
        )
    return [MONITORS[name]() for name in names]
