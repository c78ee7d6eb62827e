"""Tests for the client cache and remote-call machinery."""

import pytest

from repro import EmptyModule, Runtime
from repro.analysis.metrics import Metrics
from repro.core.cache import ClientCache
from repro.core.calls import CallAborted, RemoteCaller, Sender
from repro.agent import AgentTransaction
from repro.core.messages import (
    BeginTxnMsg,
    CallFailedMsg,
    CallMsg,
    CommitMsg,
    FinishTxnMsg,
    PrepareMsg,
    ReplyMsg,
    TxnRequestMsg,
    ViewChangedMsg,
    ViewProbeMsg,
    ViewProbeReplyMsg,
)
from repro.core.view import View
from repro.core.viewstamp import ViewId
from repro.config import CALL_PROBES, ProtocolConfig
from repro.detect import AdaptiveTimeouts, RttEstimator
from repro.location import LocationService
from repro.sim.kernel import Simulator
from repro.txn.ids import Aid, CallId
from repro.workloads.kv import KVStoreSpec

V1 = ViewId(1, 0)
V2 = ViewId(2, 1)
VIEW1 = View(primary=0, backups=(1, 2))
VIEW2 = View(primary=1, backups=(0, 2))


# -- cache --------------------------------------------------------------------


def location_of_g():
    location = LocationService()
    location.register("g", ((0, "g/0"), (1, "g/1"), (2, "g/2")))
    return location


def test_cache_update_and_get():
    cache = ClientCache(location_of_g())
    assert cache.get("g") is None and cache.primary("g") is None
    assert cache.learn("g", V1, VIEW1)
    entry = cache.get("g")
    assert (entry.viewid, entry.view, entry.primary_address) == (V1, VIEW1, "g/0")
    assert cache.primary("g") == "g/0"
    assert "g" in cache


def test_cache_only_moves_forward():
    cache = ClientCache(location_of_g())
    assert cache.learn("g", V2, VIEW2)
    assert not cache.learn("g", V1, VIEW1)
    assert cache.get("g").viewid == V2
    assert cache.learn("g", ViewId(3, 0), VIEW1)
    assert cache.primary("g") == "g/0"


@pytest.mark.parametrize(
    "groupid, viewid, view, moves",
    [
        pytest.param("g", V2, VIEW2, True, id="newer-view"),
        pytest.param("g", V1, VIEW2, False, id="equal-viewid"),
        pytest.param("g", ViewId(0, 2), VIEW2, False, id="older-viewid"),
        pytest.param("g", None, VIEW2, False, id="no-viewid"),
        pytest.param("g", V2, None, False, id="no-view"),
        pytest.param("nope", V2, VIEW2, False, id="unknown-group"),
        pytest.param(
            "g", V2, View(primary=7, backups=(0, 1)), False, id="unregistered-primary"
        ),
    ],
)
def test_cache_learn(groupid, viewid, view, moves):
    """Figure 2's "update the cache, if possible", from a cache holding V1
    (primary g/0): only a newer viewid whose view names a registered
    primary of a known group moves it."""
    cache = ClientCache(location_of_g())
    cache.learn("g", V1, VIEW1)
    assert cache.learn(groupid, viewid, view) is moves
    assert cache.primary("g") == ("g/1" if moves else "g/0")
    assert cache.get("g").viewid == (V2 if moves else V1)
    assert "nope" not in cache


def test_cache_invalidate():
    cache = ClientCache(location_of_g())
    cache.learn("g", V1, VIEW1)
    cache.invalidate("g")
    assert cache.get("g") is None
    assert "g" not in cache


# -- RemoteCaller against a scripted host ---------------------------------------


class FakeHost:
    """Implements the RemoteCaller host contract with a message log."""

    def __init__(self):
        self.sim = Simulator()
        self.address = "client"
        self.cache = ClientCache(location_of_g())
        self.config = ProtocolConfig(call_timeout=10.0)
        self.metrics = Metrics()
        self.rtt = RttEstimator()
        self.timeouts = AdaptiveTimeouts(self.config, self.rtt)
        self.tracer = None
        self.sender = Sender(self)
        self.sent = []

    def send(self, destination, message):
        self.sent.append((destination, message))

    def set_timer(self, delay, fn, *args):
        return self.sim.schedule(delay, fn, *args)


def make_call(host, caller, seq=1):
    aid = Aid("c", V1, 1)
    call_id = CallId(aid, seq)
    future = caller.call(aid, "g", "proc", ("x",), call_id)
    return call_id, future


def test_call_uses_cache_and_sends():
    host = FakeHost()
    host.cache.learn("g", V1, VIEW1)
    caller = RemoteCaller(host)
    _call_id, _future = make_call(host, caller)
    destination, message = host.sent[0]
    assert destination == "g/0"
    assert isinstance(message, CallMsg)
    assert message.viewid == V1


def test_call_probes_when_cache_empty():
    host = FakeHost()
    caller = RemoteCaller(host)
    make_call(host, caller)
    probes = [d for d, m_ in host.sent if isinstance(m_, ViewProbeMsg)]
    assert set(probes) == {"g/0", "g/1", "g/2"}


def test_probe_reply_triggers_send():
    host = FakeHost()
    caller = RemoteCaller(host)
    _call_id, future = make_call(host, caller)
    caller.sender.on_probe_reply(
        ViewProbeReplyMsg(groupid="g", viewid=V1, view=VIEW1, active=True)
    )
    calls = [(d, m_) for d, m_ in host.sent if isinstance(m_, CallMsg)]
    assert calls and calls[0][0] == "g/0"


def test_reply_resolves_future():
    host = FakeHost()
    host.cache.learn("g", V1, VIEW1)
    caller = RemoteCaller(host)
    call_id, future = make_call(host, caller)
    caller.on_reply(ReplyMsg(call_id=call_id, result=42, pset_pairs=(), piggyback=None))
    assert future.result()[0] == 42


def test_timeout_probes_same_primary_then_fails():
    host = FakeHost()
    host.cache.learn("g", V1, VIEW1)
    caller = RemoteCaller(host)
    call_id, future = make_call(host, caller)
    host.sim.run(until=50.0)
    call_sends = [d for d, m_ in host.sent if isinstance(m_, CallMsg)]
    assert call_sends == ["g/0"] * CALL_PROBES  # the original, then one per expired wait
    assert future.done
    assert isinstance(future.exception(), CallAborted)
    assert "no reply" in future.exception().reason
    # The failure refreshed discovery: probes went out for next time.
    assert any(isinstance(m_, ViewProbeMsg) for _d, m_ in host.sent)
    assert host.cache.get("g") is None


def test_view_changed_rejection_switches_primary():
    host = FakeHost()
    host.cache.learn("g", V1, VIEW1)
    caller = RemoteCaller(host)
    call_id, future = make_call(host, caller)
    caller.on_view_changed(
        ViewChangedMsg(call_id=call_id, viewid=V2, view=VIEW2, groupid="g")
    )
    destinations = [d for d, m_ in host.sent if isinstance(m_, CallMsg)]
    assert destinations[-1] == "g/1"  # the new primary
    assert host.cache.get("g").viewid == V2


def test_call_failed_propagates():
    host = FakeHost()
    host.cache.learn("g", V1, VIEW1)
    caller = RemoteCaller(host)
    call_id, future = make_call(host, caller)
    caller.on_call_failed(CallFailedMsg(call_id=call_id, reason="kaput"))
    assert isinstance(future.exception(), CallAborted)


def test_abandon_all_fails_outstanding():
    host = FakeHost()
    host.cache.learn("g", V1, VIEW1)
    caller = RemoteCaller(host)
    _call_id, f1 = make_call(host, caller, seq=1)
    _call_id2, f2 = make_call(host, caller, seq=2)
    caller.abandon_all("leaving active")
    assert f1.failed and f2.failed


def test_unknown_group_fails_fast():
    host = FakeHost()
    caller = RemoteCaller(host)
    aid = Aid("c", V1, 1)
    future = caller.call(aid, "nowhere", "proc", (), CallId(aid, 1))
    host.sim.run(until=200.0)
    assert future.failed


def test_late_reply_ignored():
    host = FakeHost()
    host.cache.learn("g", V1, VIEW1)
    caller = RemoteCaller(host)
    call_id, future = make_call(host, caller)
    host.sim.run(until=50.0)  # times out and fails
    assert future.failed
    # A very late reply must not blow up or double-resolve.
    caller.on_reply(ReplyMsg(call_id=call_id, result=1, pset_pairs=(), piggyback=None))


def test_unanswered_retransmit_asks_the_group_and_follows_a_later_view():
    """A retransmit also probes every member but its silent target; a probe
    reply naming a later view re-sends the call, with the same call id, to
    that view's primary, with the full patience again."""
    host = FakeHost()
    host.cache.learn("g", V1, VIEW1)
    caller = RemoteCaller(host)
    call_id, future = make_call(host, caller)
    host.sim.run(until=12.0)  # the first wait (call_timeout=10) ran out
    retransmit_at = len(host.sent) - 3
    assert [d for d, m_ in host.sent if isinstance(m_, CallMsg)] == ["g/0", "g/0"]
    assert [d for d, m_ in host.sent[retransmit_at:]] == ["g/0", "g/1", "g/2"]
    assert all(isinstance(m_, ViewProbeMsg) for _d, m_ in host.sent[retransmit_at + 1:])
    caller.sender.on_probe_reply(ViewProbeReplyMsg(groupid="g", viewid=V2, view=VIEW2, active=True))
    destination, message = host.sent[-1]
    assert (destination, message.call_id, message.viewid) == ("g/1", call_id, V2)
    host.sim.run(until=25.0)  # a fresh target's first wait has not run out
    assert not future.done
    caller.on_reply(ReplyMsg(call_id=call_id, result=7, pset_pairs=(), piggyback=None))
    assert future.result()[0] == 7


# -- hosts learn through their cache --------------------------------------------


def test_driver_and_agent_follow_a_probe_reply_naming_a_newer_view():
    """A probe reply for a newer view of a group with a request (driver) or
    a call (agent) pending moves each host's cache to the new primary, and
    each re-sends there once: a repeat of the reply moves nothing."""
    rt = Runtime(seed=5)
    rt.create_group("kv", KVStoreSpec(n_keys=4), n_cohorts=3)
    rt.create_group("coordsvc", EmptyModule(), n_cohorts=3)
    driver = rt.create_driver("driver")
    agent = rt.create_agent("agent", "coordsvc")
    addresses = dict(rt.location.lookup("kv"))
    old = ViewProbeReplyMsg(groupid="kv", viewid=V1, view=VIEW1, active=True)
    new = ViewProbeReplyMsg(groupid="kv", viewid=V2, view=VIEW2, active=True)
    sent = {driver: [], agent: []}
    for host, log in sent.items():
        host.send = lambda dst, msg, log=log: log.append((dst, msg))
        host.handle_message(old, addresses[0])
    driver.call("kv", "incr", "k", 1)
    aid = Aid("coordsvc", V1, 1)
    agent.caller.call(aid, "kv", "incr", ("k", 1), CallId(aid, 1))
    for _ in range(2):
        for host in sent:
            host.handle_message(new, addresses[2])
    for host, kind in ((driver, TxnRequestMsg), (agent, CallMsg)):
        assert host.cache.primary("kv") == addresses[1]
        resent = [dst for dst, msg in sent[host] if isinstance(msg, kind)]
        assert resent == [addresses[0], addresses[1]]
    # The agent's begin and finish go to the coordinator group's primary the
    # same way.
    coordsvc = dict(rt.location.lookup("coordsvc"))
    agent.handle_message(
        ViewProbeReplyMsg(groupid="coordsvc", viewid=V1, view=VIEW1, active=True), coordsvc[0]
    )
    agent._begin()
    agent._finish(AgentTransaction(agent, aid), "commit")
    for _ in range(2):
        agent.handle_message(
            ViewProbeReplyMsg(groupid="coordsvc", viewid=V2, view=VIEW2, active=True),
            coordsvc[2],
        )
    for kind in (BeginTxnMsg, FinishTxnMsg):
        resent = [dst for dst, msg in sent[agent] if isinstance(msg, kind)]
        assert resent == [coordsvc[0], coordsvc[1]]


# -- every send follows the group and asks it when the primary is silent -----------


def _two_counter_system():
    """Counter groups ``a`` and ``b`` and a client group whose ``both``
    program bumps each: a transaction with two participants, so a prepare
    and then a commit go to each; every send is logged, and a message the
    ``drop`` set names is lost."""
    from tests.conftest import CounterSpec

    rt = Runtime(seed=3)
    a = rt.create_group("a", CounterSpec(), n_cohorts=3)
    rt.create_group("b", CounterSpec(), n_cohorts=3)
    clients = rt.create_group("clients", EmptyModule(), n_cohorts=3)

    def both(txn):
        yield txn.call("a", "increment", 1)
        yield txn.call("b", "increment", 1)
        return "ok"

    clients.register_program("both", both)
    driver = rt.create_driver("driver")
    sent, drop = [], set()
    deliver = rt.network.send

    def send(source, destination, payload):
        sent.append((rt.sim.now, source, destination, payload))
        if type(payload) not in drop:
            deliver(source, destination, payload)

    rt.network.send = send
    assert _run_until(rt, driver.call("clients", "both")) == ("committed", "ok")
    return rt, a, clients, driver, sent, drop


def _run_until(rt, future, deadline=3_000.0):
    while not future.done and rt.sim.now < deadline:
        rt.run_for(0.5)
    return future.result() if future.done else None


@pytest.mark.parametrize("kind", [PrepareMsg, CommitMsg])
def test_prepare_and_commit_follow_a_probe_reply_naming_a_newer_view(kind):
    """A prepare or commit lost on its way to participant ``a``'s primary
    goes to the primary of the newer view a probe reply names at once, not
    at the coordinator's next retry tick."""
    rt, a, clients, driver, sent, drop = _two_counter_system()
    drop.add(kind)
    coordinator = clients.active_primary()
    old = coordinator.cache.get("a")
    start = len(sent)
    driver.call("clients", "both")
    while not any(
        isinstance(m_, kind) and dst == old.primary_address for _t, _s, dst, m_ in sent[start:]
    ):
        rt.run_for(0.25)
    newer = View(primary=(old.view.primary + 1) % 3, backups=(old.view.primary,))
    target = dict(rt.location.lookup("a"))[newer.primary]
    assert target != old.primary_address
    before = len(sent)
    coordinator.handle_message(
        ViewProbeReplyMsg(groupid="a", viewid=old.viewid.next_for(newer.primary),
                          view=newer, active=True),
        target,
    )
    resent = [(t, dst) for t, src, dst, m_ in sent[before:] if isinstance(m_, kind)]
    assert resent == [(rt.sim.now, target)]


def test_driver_resends_to_its_cached_primary_when_a_wait_runs_out():
    """A request whose wait runs out goes again to the cached primary, and
    the rest of the client group is asked for its view in the same step."""
    rt, _a, clients, driver, sent, drop = _two_counter_system()
    drop.add(TxnRequestMsg)
    primary = driver.cache.primary("clients")
    started, first = rt.sim.now, len(sent)
    driver.call("clients", "both", timeout=40.0)
    rt.run_for(41.0)
    mine = [(t, dst, type(m_)) for t, src, dst, m_ in sent[first:] if src == driver.address]
    members = [address for _mid, address in rt.location.lookup("clients")]
    assert mine == [(started, primary, TxnRequestMsg)] + [
        (started + 40.0, primary, TxnRequestMsg)
    ] + [(started + 40.0, address, ViewProbeMsg) for address in members if address != primary]
