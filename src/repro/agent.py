"""Unreplicated client agents (paper section 3.5).

"Replicating a client that is not a server, however, may not be
worthwhile."  A :class:`ClientAgent` is a single, crashable process that:

1. registers each transaction with a replicated *coordinator-server* group,
   obtaining an aid whose groupid names that server (so participants know
   whom to query);
2. makes the transaction's remote calls itself, accumulating the pset;
3. hands the pset back to the coordinator-server, which runs two-phase
   commit on its behalf and answers outcome queries;
4. answers the coordinator-server's liveness probes -- if the agent dies
   mid-transaction, the coordinator-server aborts unilaterally once a probe
   goes unanswered.
"""

from __future__ import annotations

from typing import Any, Dict, Tuple

from repro.core import messages as m
from repro.core.cache import ClientCache
from repro.core.calls import CallAborted, RemoteCaller, Send, Sender
from repro.detect import AdaptiveTimeouts, Retry, RttEstimator
from repro.sim.future import Future
from repro.sim.node import Actor, Node
from repro.txn.ids import Aid, CallId
from repro.txn.pset import PSet


class AgentTransaction:
    """Transaction handle used inside a client agent's program."""

    def __init__(self, agent: "ClientAgent", aid: Aid):
        self._agent = agent
        self.aid = aid
        self.pset = PSet()
        self.aborted_subactions: set[int] = set()
        self._call_seq = 0

    def call(self, groupid: str, proc: str, *args: Any) -> Future:
        self._call_seq += 1
        call_id = CallId(aid=self.aid, seq=self._call_seq, subaction=self._call_seq)
        done = Future(label=("agentcall:", call_id))
        attempt = self._agent.caller.call(
            self.aid, groupid, proc, tuple(args), call_id
        )

        def on_done(future: Future) -> None:
            error = future.exception()
            if error is not None:
                done.set_exception(error)
                return
            result, pset_pairs, _piggyback = future.result()
            for pair in pset_pairs:
                self.pset.add(pair.groupid, pair.vs)
            done.set_result(result)

        attempt.add_done_callback(on_done)
        return done

    def abort(self, reason: str = "aborted by program") -> None:
        raise CallAborted(reason)


class _Exchange(Send):
    """A begin or finish to the coordinator group's primary, re-sent until
    its reply resolves ``waiters[key]``; *verdict* resolves it once
    patience runs out."""

    def __init__(self, agent: "ClientAgent", waiters: Dict, key, message, verdict, retry):
        super().__init__((agent.coordinator_group,), retry)
        self.agent = agent
        self.waiters = waiters
        self.key = key
        self.message = message
        self.verdict = verdict
        self.future = Future(label=("exchange:", key))

    def transmit(self, groupid: str, address: str, _viewid) -> None:
        self.agent.send(address, self.message)

    def give_up(self, reason: str) -> None:
        self.agent.settle(self.waiters, self.key, self.verdict)


class ClientAgent(Actor):
    """An unreplicated client running transactions via a coordinator-server."""

    def __init__(self, node: Node, runtime, name: str, coordinator_group: str):
        super().__init__(node, name)
        self.runtime = runtime
        self.config = runtime.config
        self.coordinator_group = coordinator_group
        self.metrics = runtime.metrics
        self.tracer = runtime.tracer
        self.cache = ClientCache(runtime.location)
        self.rtt = RttEstimator()  # fed by RemoteCaller.on_reply
        self.timeouts = AdaptiveTimeouts(self.config, self.rtt)
        self.sender = Sender(self)
        self.caller = RemoteCaller(self)
        self._next_request = 0
        self._begin_waiters: Dict[int, _Exchange] = {}
        self._finish_waiters: Dict[Aid, _Exchange] = {}
        self._active_aids: set[Aid] = set()
        runtime.network.register(self)

    # -- host interface for Sender and RemoteCaller -------------------------

    def send(self, destination: str, message) -> None:
        self.runtime.network.send(self.address, destination, message)

    # -- running programs --------------------------------------------------------

    def run_transaction(self, program, *args: Any) -> Future:
        """Run *program(txn, ...)*; resolves to (outcome, result)."""
        return self.spawn(
            self._run(program, args), name=f"agent-txn@{self.address}"
        )

    def _run(self, program, args: Tuple):
        aid = yield self._begin()
        if aid is None:
            return ("aborted", None)  # no aid was handed out: nothing ran
        txn = AgentTransaction(self, aid)
        self._active_aids.add(aid)
        try:
            generated = program(txn, *args)
            if hasattr(generated, "send"):
                result = yield from generated
            else:
                result = generated
        except CallAborted:
            self._active_aids.discard(aid)
            yield self._finish(txn, "abort")
            return ("aborted", None)
        self._active_aids.discard(aid)
        outcome = yield self._finish(txn, "commit")
        return (outcome, result if outcome == "committed" else None)

    # -- begin -----------------------------------------------------------------

    def _begin(self) -> Future:
        """Resolves to the new aid, or None: no coordinator-server answered."""
        self._next_request += 1
        request_id = self._next_request
        # Fixed on purpose: patience here is an attempt count, and a begin
        # must outlive a full view change at the coordinator group.
        message = m.BeginTxnMsg(request_id=request_id, client=self.address)
        retry = Retry(lambda: self.config.call_timeout, 6)
        return self._exchange(self._begin_waiters, request_id, message, None, retry)

    # -- finish -----------------------------------------------------------------

    def _finish(self, txn: AgentTransaction, decision: str) -> Future:
        message = m.FinishTxnMsg(
            aid=txn.aid,
            decision=decision,
            pset_pairs=tuple(txn.pset.pairs()),
            aborted_subactions=tuple(sorted(txn.aborted_subactions)),
            client=self.address,
        )
        retry = Retry(lambda: self.config.call_timeout * 2, 8)
        return self._exchange(self._finish_waiters, txn.aid, message, "unknown", retry)

    def _exchange(self, waiters: Dict, key, message, verdict, retry: Retry) -> Future:
        exchange = waiters[key] = _Exchange(self, waiters, key, message, verdict, retry)
        self.sender.start(exchange)
        return exchange.future

    def settle(self, waiters: Dict, key, value) -> None:
        """Resolve ``waiters[key]`` (if still waiting) to *value*."""
        exchange = waiters.pop(key, None)
        if exchange is not None:
            self.sender.stop(exchange)
            if not exchange.future.done:
                exchange.future.set_result(value)

    # -- message handling -----------------------------------------------------------

    def handle_message(self, message, source: str) -> None:
        if isinstance(message, m.ReplyMsg):
            self.caller.on_reply(message)
        elif isinstance(message, m.CallFailedMsg):
            self.caller.on_call_failed(message)
        elif isinstance(message, m.ViewChangedMsg):
            self.caller.on_view_changed(message)
        elif isinstance(message, m.ViewProbeReplyMsg):
            self.sender.on_probe_reply(message)
        elif isinstance(message, m.BeginTxnReplyMsg):
            self.settle(self._begin_waiters, message.request_id, message.aid)
        elif isinstance(message, m.FinishTxnReplyMsg):
            self.settle(self._finish_waiters, message.aid, message.outcome)
        elif isinstance(message, m.ClientProbeMsg):
            self.send(
                source,
                m.ClientProbeReplyMsg(
                    aid=message.aid, active=message.aid in self._active_aids
                ),
            )

    def on_crash(self) -> None:
        for waiters in (self._begin_waiters, self._finish_waiters):
            for exchange in waiters.values():
                self.sender.stop(exchange)
            waiters.clear()
        self._active_aids.clear()
        self.caller.abandon_all("client crashed")
