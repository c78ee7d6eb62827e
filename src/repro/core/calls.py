"""Remote-call machinery shared by client primaries and nested server calls.

Implements Figure 2's "making a remote call" loop:

1. look up the server in the cache, updating the cache if necessary (by
   probing configuration members obtained from the location server);
2. send the call message (viewid from the cache + unique call id);
3. reply -> merge psets; no reply after probes -> the transaction must
   abort; view-changed rejection -> update the cache and retry.

Retransmits re-send the *same* call id to the *same* primary; the server's
duplicate-suppression table makes that idempotent, so lost replies are
recovered without double execution.  A crashed primary sends no
view-changed rejection, so each retransmit also asks the group's other
members which view they are in.  After a view change -- learnt from a
rejection or from a probe reply -- the retry goes to the new primary with
the same call id: if the call already ran in the old view, the new primary
detects the id among its surviving completed-call records and fails the
call, which aborts the transaction (the paper's "to resolve this
uncertainty, we abort the transaction").
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, Optional, Tuple

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


def probe_view(host, groupid: str, skip: Optional[str] = None) -> bool:
    """Ask every member of *groupid* but the one at *skip* for its current
    view, in configuration order (Figure 2's cache refresh); False if the
    group is unknown.  The host provides ``address``, ``send`` and
    ``cache`` as for :class:`RemoteCaller`."""
    members = host.cache.location.try_lookup(groupid)
    if members is None:
        return False
    for _mid, address in members:
        if address != skip:
            host.send(address, ViewProbeMsg(reply_to=host.address))
    return True


@dataclasses.dataclass
class _OutstandingCall:
    call_id: CallId
    aid: Aid
    groupid: str
    proc: str
    args: Tuple
    future: Future
    retry: Retry  # the retransmit schedule (repro.detect)
    view_switches_left: int
    timer: Any = None
    target: Optional[str] = None
    viewid: Optional[ViewId] = None
    probing: bool = False
    probes_left: int = 3
    piggyback: Any = None
    aborted_subactions: Tuple = ()
    started_at: float = 0.0


class RemoteCaller:
    """Issues calls on behalf of one host actor (a cohort or client agent).

    The host provides: ``address``, ``sim``, ``node``, ``cache``
    (ClientCache, which learns every view a reply carries and names the
    group's members), ``config`` (ProtocolConfig), ``metrics`` (Metrics),
    ``rtt`` (RttEstimator, fed each call's round trip), ``timeouts``
    (AdaptiveTimeouts over that ``rtt``), ``tracer`` (None when off),
    ``set_timer(delay, fn, *args)`` and ``send(dst, msg)``.
    """

    def __init__(self, host):
        self.host = host
        self._outstanding: Dict[CallId, _OutstandingCall] = {}
        # Named fork: adding consumers elsewhere never perturbs this stream.
        self._rng = host.sim.rng.fork(f"call-backoff/{host.address}")
        self._tracer = host.tracer

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
        future = Future(label=f"call:{call_id}")
        state = _OutstandingCall(
            call_id=call_id,
            aid=aid,
            groupid=groupid,
            proc=proc,
            args=args,
            future=future,
            retry=self.host.timeouts.call_retry(self._rng),
            view_switches_left=_MAX_VIEW_SWITCHES,
            piggyback=piggyback,
            aborted_subactions=tuple(aborted_subactions),
            started_at=self.host.sim.now,
        )
        self._outstanding[call_id] = state
        if self._tracer is not None:
            self._tracer.emit(
                "call_start",
                node=self.host.node.node_id,
                caller=self.host.address,
                aid=str(aid),
                call_id=str(call_id),
                group=groupid,
                proc=proc,
            )
        self._dispatch(state)
        return future

    def abandon_all(self, reason: str = "view change at caller") -> None:
        """Fail every outstanding call (host left the active state)."""
        outstanding, self._outstanding = self._outstanding, {}
        for state in outstanding.values():
            if state.timer is not None:
                state.timer.cancel()
            if not state.future.done:
                state.future.set_exception(CallAborted(reason))

    # -- sending ------------------------------------------------------------

    def _dispatch(self, state: _OutstandingCall) -> None:
        entry = self.host.cache.get(state.groupid)
        if entry is None:
            self._probe(state)
            return
        state.probing = False
        state.target = entry.primary_address
        state.viewid = entry.viewid
        self._transmit(state)

    def _transmit(self, state: _OutstandingCall) -> None:
        self.host.send(
            state.target,
            CallMsg(
                viewid=state.viewid,
                call_id=state.call_id,
                aid=state.aid,
                proc=state.proc,
                args=state.args,
                reply_to=self.host.address,
                piggyback=state.piggyback,
                aborted_subactions=state.aborted_subactions,
            ),
        )
        state.timer = self.host.set_timer(
            state.retry.wait(self.host.sim.now), self._on_timeout, state.call_id
        )

    def _probe(self, state: _OutstandingCall) -> None:
        """Discover the group's current primary by asking its cohorts."""
        if state.probes_left <= 0:
            self._fail(state, "cannot discover a view for " + state.groupid)
            return
        state.probing = True
        state.probes_left -= 1
        if not probe_view(self.host, state.groupid):
            self._fail(state, f"unknown group {state.groupid}")
            return
        state.timer = self.host.set_timer(
            self.host.config.call_timeout, self._on_probe_timeout, state.call_id
        )

    # -- message handling (wired from the host's dispatch) -------------------

    def on_reply(self, msg: ReplyMsg) -> None:
        state = self._outstanding.pop(msg.call_id, None)
        if state is None:
            return  # late reply for a call we gave up on
        if state.timer is not None:
            state.timer.cancel()
        latency = self.host.sim.now - state.started_at
        metrics = self.host.metrics
        metrics.observe("call_latency", latency)
        metrics.observe(f"call_latency:{state.groupid}", latency)
        self.host.rtt.observe(latency)
        if self._tracer is not None:
            self._tracer.emit(
                "call_reply",
                node=self.host.node.node_id,
                caller=self.host.address,
                call_id=str(msg.call_id),
                latency=latency,
            )
        state.future.set_result((msg.result, msg.pset_pairs, msg.piggyback))

    def on_call_failed(self, msg: CallFailedMsg) -> None:
        state = self._outstanding.pop(msg.call_id, None)
        if state is None:
            return
        if state.timer is not None:
            state.timer.cancel()
        if self._tracer is not None:
            self._tracer.emit(
                "call_failed",
                node=self.host.node.node_id,
                caller=self.host.address,
                call_id=str(msg.call_id),
                reason=msg.reason,
            )
        state.future.set_exception(CallAborted(msg.reason))

    def on_view_changed(self, msg: ViewChangedMsg) -> None:
        """Rejection carrying (possibly) newer view information."""
        if msg.call_id is None:
            return
        state = self._outstanding.get(msg.call_id)
        if state is None:
            return
        moved = self.host.cache.learn(state.groupid, msg.viewid, msg.view)
        if not self._switch_view(state):
            return
        if moved or self.host.cache.get(state.groupid) is not None:
            self._dispatch(state)
        else:
            self.host.cache.invalidate(state.groupid)
            self._probe(state)

    def on_probe_reply(self, msg: ViewProbeReplyMsg) -> None:
        """Every call to the group that the cache has moved past (it was
        sent in an older view) is re-sent to the new primary with the same
        call id."""
        if msg.active:
            self.host.cache.learn(msg.groupid, msg.viewid, msg.view)
        entry = self.host.cache.get(msg.groupid)
        if entry is None:
            return
        groupid, viewid = msg.groupid, entry.viewid
        for state in list(self._outstanding.values()):
            if state.probing:
                if state.groupid == groupid:
                    if state.timer is not None:
                        state.timer.cancel()
                    self._dispatch(state)
            # A call sent in the cached view holds that very ViewId, so the
            # identity test spares the ordered comparison on every reply.
            elif (
                state.viewid is not viewid
                and state.groupid == groupid
                and state.viewid < viewid
                and self._switch_view(state)
            ):
                self._dispatch(state)

    # -- timeouts ------------------------------------------------------------

    def _on_timeout(self, call_id: CallId) -> None:
        state = self._outstanding.get(call_id)
        if state is None:
            return
        if not state.retry.expired(self.host.sim.now):
            # Probe: re-send the same call id to the same primary; the
            # server's duplicate table makes this safe.  The rest of the
            # group is asked which view it is in, so that a silent (crashed)
            # primary's successor is followed rather than waited out.
            self.host.metrics.incr("call_retransmits")
            self._transmit(state)
            probe_view(self.host, state.groupid, skip=state.target)
        else:
            # "The transaction must abort...  we also attempt to update the
            # cache, so that the next use of the server will not cause an
            # abort."  (Figure 2, step 3.)
            self.host.cache.invalidate(state.groupid)
            probe_view(self.host, state.groupid)
            self._fail(state, f"no reply from {state.groupid}")

    def _on_probe_timeout(self, call_id: CallId) -> None:
        state = self._outstanding.get(call_id)
        if state is None or not state.probing:
            return
        entry = self.host.cache.get(state.groupid)
        if entry is not None:
            self._dispatch(state)
        else:
            self._probe(state)

    # -- helpers --------------------------------------------------------------

    def _switch_view(self, state: _OutstandingCall) -> bool:
        """Ready *state* for a newer view of its group: False (the call
        failed) once its view switches are spent."""
        if state.timer is not None:
            state.timer.cancel()
        if state.view_switches_left <= 0:
            self._fail(state, "too many view changes at " + state.groupid)
            return False
        state.view_switches_left -= 1
        state.retry.restart()  # a fresh target gets the full patience again
        return True

    def _fail(self, state: _OutstandingCall, reason: str) -> None:
        if state.timer is not None:
            state.timer.cancel()
        if self._tracer is not None:
            self._tracer.emit(
                "call_failed",
                node=self.host.node.node_id,
                caller=self.host.address,
                call_id=str(state.call_id),
                reason=reason,
            )
        if not state.future.done:
            state.future.set_exception(CallAborted(reason))
        self._outstanding.pop(state.call_id, None)
