"""Figure 2's "making a remote call" loop, for every message a host sends
to a group's primary and waits on:

1. look up the server in the cache, updating the cache if necessary (by
   probing configuration members obtained from the location server);
2. send the call message (viewid from the cache + unique call id);
3. reply -> merge psets; no reply after probes -> the transaction must
   abort; view-changed rejection -> update the cache and retry.

:class:`Sender` is that loop, and :class:`Send` one message it runs: a
remote call (:class:`RemoteCaller`), a coordinator's prepares and commits,
a driver's transaction request, a client agent's begin and finish.
Re-sends go to the *same* primary (the receiver's duplicate suppression
makes that idempotent); a crashed primary sends no view-changed rejection,
so each re-send also asks the group's other members which view they are
in, and a newer view is followed at once.  A call keeps its call id: a new
primary that finds it among its surviving completed-call records fails the
call, aborting the transaction (the paper's "to resolve this uncertainty,
we abort the transaction").
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Optional, Set, Tuple

from repro.config import IM_ALIVE_INTERVAL
from repro.core.messages import (
    CallFailedMsg,
    CallMsg,
    ReplyMsg,
    ViewChangedMsg,
    ViewProbeMsg,
    ViewProbeReplyMsg,
)
from repro.core.viewstamp import ViewId
from repro.detect import Retry
from repro.sim.errors import SimulationError
from repro.sim.future import Future
from repro.txn.ids import Aid, CallId


class CallAborted(SimulationError):
    """The remote call failed in a way that requires aborting the
    transaction (or just the enclosing subaction, under nesting)."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


_MAX_VIEW_SWITCHES = 5
_DISCOVERY_PROBES = 3


def probe_view(host, groupid: str, skip: Optional[str] = None) -> bool:
    """Ask every member of *groupid* but the one at *skip* for its current
    view, in configuration order (Figure 2's cache refresh); False if the
    group is unknown.  The host provides ``address``, ``send`` and
    ``cache`` as for :class:`Sender`."""
    members = host.cache.location.try_lookup(groupid)
    if members is None:
        return False
    for _mid, address in members:
        if address != skip:
            host.send(address, ViewProbeMsg(reply_to=host.address))
    return True


class Send:
    """One message a host sends to the primary of each of *groupids* until
    each answers; a :class:`Sender` runs it.  A subclass says what goes out
    (:meth:`transmit`) and what running out of patience means
    (:meth:`give_up`).

    ``retry`` paces the re-sends.  The rest is a call's policy (Figure 2):
    ``switches`` bounds how often it follows a newer view; while no primary
    is known it runs up to ``probes`` discovery rounds ``discovery`` long,
    which spend no patience (other sends wait discovery out on ``retry``);
    ``forget`` drops the cached view and asks the group when patience runs
    out.  ``home`` is the host's own group: its copy goes to the host
    itself, and is never probed for or followed."""

    switches: Optional[int] = None
    discovery: Optional[float] = None
    probes: Optional[int] = None
    forget = False

    def __init__(self, groupids: Iterable[str], retry: Retry, home: Optional[str] = None):
        self.retry = retry
        self.home = home
        self.timer: Any = None
        #: groupid -> (address, viewid) its copy went to; None: discovering
        self.copies: Dict[str, Optional[Tuple[str, Any]]] = dict.fromkeys(groupids)

    def transmit(self, groupid: str, address: str, viewid: Optional[ViewId]) -> None:
        raise NotImplementedError

    def give_up(self, reason: str) -> None:
        raise NotImplementedError

    def resent(self) -> None:
        """A wait ran out and the copies go again."""


class Sender:
    """Runs one host's sends (DESIGN.md D7): finds each target through the
    host's cache, with a probe when there is no entry; arms one timer per
    send from its ``retry``; on silence re-sends to the target and asks the
    rest of the group; follows a newer view at once, with full patience
    again; and hands the send its verdict when patience runs out.

    The host provides ``address``, ``sim``, ``cache`` (ClientCache),
    ``set_timer(delay, fn, *args)`` and ``send(dst, msg)``."""

    def __init__(self, host):
        self.host = host
        self._sends: Dict[Send, None] = {}  # outstanding, in start order
        self._asking: Set[str] = set()  # groups with a repeated probe due
        #: group -> the viewid all its copies were last followed to (dropped
        #: when one starts discovery): a reply naming it has nothing to follow
        self._followed: Dict[str, Any] = {}

    def start(self, send: Send) -> None:
        self._sends[send] = None
        self._transmit(send, list(send.copies))

    def answered(self, send: Send, groupid: str) -> bool:
        """*groupid* answered *send*: True if no group is left waiting (the
        send is over)."""
        send.copies.pop(groupid, None)
        if send.copies or send not in self._sends:
            return False
        self.stop(send)
        return True

    def stop(self, send: Send) -> None:
        """Withdraw *send*: no re-send and no verdict."""
        self._sends.pop(send, None)
        if send.timer is not None:
            send.timer.cancel()
            send.timer = None

    def probe(self, groupid: str) -> bool:
        """Ask *groupid* for its view on behalf of a message no send waits
        on (a read); :meth:`on_probe_reply` learns the answer."""
        return probe_view(self.host, groupid)

    # -- what the group says ----------------------------------------------------

    def on_probe_reply(self, msg: ViewProbeReplyMsg) -> bool:
        """Learn the view a probe reply names and follow it; True if the
        cache moved.  A member that is changing views gets asked again an
        I'm-alive interval later, while a send still waits on its group: a
        send whose last re-send came before the new view still finds it."""
        groupid = msg.groupid
        moved = self.host.cache.learn(groupid, msg.viewid, msg.view)
        self._follow(groupid)
        if not msg.active and groupid not in self._asking:
            self._asking.add(groupid)
            self.host.set_timer(IM_ALIVE_INTERVAL, self._ask_again, groupid)
        return moved

    def on_rejection(self, send: Optional[Send], groupid: str, viewid, view) -> None:
        """A cohort of *groupid* that is not its active primary rejected
        *send* (None: a message no send is known by), naming its view (None:
        it is itself changing views).  A newer view is followed; otherwise
        the group is asked."""
        moved = self.host.cache.learn(groupid, viewid, view)
        copy = None if send is None else send.copies.get(groupid)
        self._follow(groupid)
        if send is None:
            if not moved:
                probe_view(self.host, groupid)
        elif copy is not None and send in self._sends and send.copies.get(groupid) is copy:
            probe_view(self.host, groupid, skip=copy[0])

    # -- the loop ---------------------------------------------------------------

    def _ask_again(self, groupid: str) -> None:
        self._asking.discard(groupid)
        for send in self._sends:
            copy = send.copies.get(groupid)
            if copy is not None and copy[1] is not None:
                probe_view(self.host, groupid, skip=copy[0])
                return

    def _target(self, send: Send, groupid: str):
        if groupid == send.home:
            return self.host.address, None
        entry = self.host.cache.get(groupid)
        return None if entry is None else (entry.primary_address, entry.viewid)

    def _transmit(self, send: Send, groupids) -> None:
        """Send the copies for *groupids*, each where it went before or else
        to the cached primary, probing where none is cached; then arm the
        send's timer."""
        sent = False
        for groupid in groupids:
            target = send.copies.get(groupid) or self._target(send, groupid)
            send.copies[groupid] = target
            if target is not None:
                send.transmit(groupid, *target)
                sent = True
            elif not self._discover(send, groupid):
                return
        if send in self._sends:
            if send.timer is not None:
                send.timer.cancel()
            if sent or send.discovery is None:
                delay = send.retry.wait(self.host.sim.now)
            else:
                delay = send.discovery
            send.timer = self.host.set_timer(delay, self._on_silence, send)

    def _discover(self, send: Send, groupid: str) -> bool:
        self._followed.pop(groupid, None)
        if send.probes is not None:
            if send.probes <= 0:
                self._give_up(send, "cannot discover a view for " + groupid)
                return False
            send.probes -= 1
        if not probe_view(self.host, groupid):
            self._give_up(send, f"unknown group {groupid}")
            return False
        return True

    def _on_silence(self, send: Send) -> None:
        if send not in self._sends:
            return
        copies = send.copies
        if send.discovery is not None and not any(copies.values()):
            # A discovery round ran out, which spends no patience.
            self._transmit(send, list(copies))
            return
        if send.retry.expired(self.host.sim.now):
            if send.forget:
                # "The transaction must abort...  we also attempt to update
                # the cache, so that the next use of the server will not
                # cause an abort."  (Figure 2, step 3.)
                for groupid in copies:
                    self.host.cache.invalidate(groupid)
                    probe_view(self.host, groupid)
            self._give_up(send, "no reply from " + ", ".join(copies))
            return
        # Re-send to the same targets -- the receiver's duplicate table makes
        # this safe -- and ask the rest of each group which view it is in,
        # so that a silent (crashed) primary's successor is followed rather
        # than waited out.
        send.resent()
        silent = [(g, copy[0]) for g, copy in copies.items() if copy and copy[1] is not None]
        self._transmit(send, list(copies))
        for groupid, address in silent:
            probe_view(self.host, groupid, skip=address)

    def _follow(self, groupid: str) -> None:
        """Every copy to *groupid* that awaited discovery, or that went to a
        view the cache has moved past, goes to the cached primary now."""
        entry = self.host.cache.get(groupid)
        if entry is None or self._followed.get(groupid) is entry.viewid:
            return
        viewid = self._followed[groupid] = entry.viewid
        for send in list(self._sends):
            copies = send.copies
            if groupid not in copies or send not in self._sends:
                continue
            copy = copies[groupid]
            if copy is not None:
                # A copy sent in the cached view holds that very ViewId, so
                # the identity test spares the ordered comparison.
                sent_in = copy[1]
                if sent_in is viewid or sent_in is None or not sent_in < viewid:
                    continue
                if not self._switch(send, groupid):
                    continue
                copies[groupid] = None
            self._transmit(send, [groupid])

    def _switch(self, send: Send, groupid: str) -> bool:
        """Ready *send* for a newer view of *groupid*, with full patience
        again: False (it gave up) once its view switches are spent."""
        if send.switches is not None:
            if send.switches <= 0:
                self._give_up(send, "too many view changes at " + groupid)
                return False
            send.switches -= 1
        send.retry.restart()
        return True

    def _give_up(self, send: Send, reason: str) -> None:
        self.stop(send)
        send.give_up(reason)


class _Call(Send):
    """A call message to the group's primary, stamped with the cached
    viewid, under Figure 2's budgets."""

    switches = _MAX_VIEW_SWITCHES
    probes = _DISCOVERY_PROBES
    forget = True

    def __init__(self, caller, aid, groupid, proc, args, call_id, piggyback, aborted_subactions):
        host = caller.host
        super().__init__((groupid,), host.timeouts.call_retry(caller._rng))
        self.discovery = host.config.call_timeout
        self.caller = caller
        self.aid = aid
        self.groupid = groupid
        self.proc = proc
        self.args = args
        self.call_id = call_id
        self.piggyback = piggyback
        self.aborted_subactions = aborted_subactions
        self.future = Future(label=("call:", call_id))
        self.started_at = host.sim.now

    def transmit(self, groupid: str, address: str, viewid: Optional[ViewId]) -> None:
        host = self.caller.host
        message = CallMsg(
            viewid=viewid,
            call_id=self.call_id,
            aid=self.aid,
            proc=self.proc,
            args=self.args,
            reply_to=host.address,
            piggyback=self.piggyback,
            aborted_subactions=self.aborted_subactions,
        )
        host.send(address, message)

    def resent(self) -> None:
        self.caller.host.metrics.incr("call_retransmits")

    def give_up(self, reason: str) -> None:
        self.caller._fail(self, reason)


class RemoteCaller:
    """Issues calls on behalf of one host actor (a cohort or client agent),
    through the host's :class:`Sender`.

    The host provides, beside the sender's contract: ``sender``, ``node``,
    ``config`` (ProtocolConfig), ``metrics`` (Metrics), ``rtt``
    (RttEstimator, fed each call's round trip), ``timeouts``
    (AdaptiveTimeouts over that ``rtt``) and ``tracer`` (None when off).
    """

    def __init__(self, host):
        self.host = host
        self.sender: Sender = host.sender
        self._outstanding: Dict[CallId, _Call] = {}
        # Named fork: adding consumers elsewhere never perturbs this stream.
        self._rng = host.sim.rng.fork(f"call-backoff/{host.address}")
        self._tracer = host.tracer
        self._latency_keys: Dict[str, str] = {}  # groupid -> its metric name

    # -- API ----------------------------------------------------------------

    def call(
        self,
        aid: Aid,
        groupid: str,
        proc: str,
        args: Tuple,
        call_id: CallId,
        piggyback: Any = None,
        aborted_subactions: Tuple[int, ...] = (),
    ) -> Future:
        """Start a remote call; the future resolves to (result, pset_pairs)."""
        host = self.host
        call = _Call(
            self, aid, groupid, proc, args, call_id, piggyback, tuple(aborted_subactions)
        )
        self._outstanding[call_id] = call
        if self._tracer is not None:
            self._tracer.emit_row(
                "call_start", host.node.node_id, (), (host.address, aid, call_id, groupid, proc)
            )
        self.sender.start(call)
        return call.future

    def abandon_all(self, reason: str = "view change at caller") -> None:
        """Fail every outstanding call (host left the active state)."""
        outstanding, self._outstanding = self._outstanding, {}
        for call in outstanding.values():
            self.sender.stop(call)
            if not call.future.done:
                call.future.set_exception(CallAborted(reason))

    # -- message handling (wired from the host's dispatch) -------------------

    def on_reply(self, msg: ReplyMsg) -> None:
        call = self._outstanding.pop(msg.call_id, None)
        if call is None:
            return  # late reply for a call we gave up on
        self.sender.stop(call)
        latency = self.host.sim.now - call.started_at
        metrics = self.host.metrics
        metrics.observe("call_latency", latency)
        key = self._latency_keys.get(call.groupid)
        if key is None:
            key = self._latency_keys[call.groupid] = f"call_latency:{call.groupid}"
        metrics.observe(key, latency)
        self.host.rtt.observe(latency)
        if self._tracer is not None:
            self._tracer.emit_row(
                "call_reply", self.host.node.node_id, (), (self.host.address, msg.call_id, latency)
            )
        call.future.set_result((msg.result, msg.pset_pairs, msg.piggyback))

    def on_call_failed(self, msg: CallFailedMsg) -> None:
        call = self._outstanding.pop(msg.call_id, None)
        if call is None:
            return
        self.sender.stop(call)
        self._trace_failed(msg.call_id, msg.reason)
        call.future.set_exception(CallAborted(msg.reason))

    def on_view_changed(self, msg: ViewChangedMsg) -> None:
        """Rejection carrying (possibly) newer view information."""
        call = self._outstanding.get(msg.call_id) if msg.call_id is not None else None
        if call is not None:
            self.sender.on_rejection(call, call.groupid, msg.viewid, msg.view)

    # -- helpers --------------------------------------------------------------

    def _fail(self, call: _Call, reason: str) -> None:
        self._trace_failed(call.call_id, reason)
        if not call.future.done:
            call.future.set_exception(CallAborted(reason))
        self._outstanding.pop(call.call_id, None)

    def _trace_failed(self, call_id: CallId, reason: str) -> None:
        if self._tracer is not None:
            self._tracer.emit_row(
                "call_failed", self.host.node.node_id, (), (self.host.address, call_id, reason)
            )
