"""The coordinator-server and unreplicated client agents (section 3.5)."""


from repro import EmptyModule, Runtime
from repro.workloads.kv import KVStoreSpec


def agent_incr(txn, key):
    result = yield txn.call("kv", "incr", key, 1)
    return result


def agent_two_keys(txn, key_a, key_b):
    a = yield txn.call("kv", "incr", key_a, 1)
    b = yield txn.call("kv", "incr", key_b, 1)
    return (a, b)


def build(seed=41, kv_cohorts=3, coord_cohorts=3):
    rt = Runtime(seed=seed)
    spec = KVStoreSpec(n_keys=8)
    kv = rt.create_group("kv", spec, n_cohorts=kv_cohorts)
    rt.create_group("coordsvc", EmptyModule(), n_cohorts=coord_cohorts)
    agent = rt.create_agent("agent", "coordsvc")
    return rt, kv, agent, spec


def test_agent_transaction_commits():
    rt, kv, agent, spec = build()
    outcome = agent.run_transaction(agent_incr, spec.key(0))
    rt.run_for(800)
    assert outcome.result() == ("committed", 1)
    assert kv.read_object(spec.key(0)) == 1


def test_agent_aid_names_coordinator_group():
    """'Its groupid is part of the transaction's aid, so that participants
    know who it is.'"""
    rt, kv, agent, spec = build()
    agent.run_transaction(agent_incr, spec.key(0))
    rt.run_for(800)
    aid = next(iter(rt.ledger.committed))
    assert aid.groupid == "coordsvc"


def test_agent_abort_via_program():
    rt, kv, agent, spec = build()

    def aborting(txn):
        yield txn.call("kv", "incr", spec.key(1), 1)
        txn.abort("changed my mind")

    outcome = agent.run_transaction(aborting)
    rt.run_for(800)
    assert outcome.result()[0] == "aborted"
    rt.quiesce()
    assert kv.read_object(spec.key(1)) == 0


def test_multiple_agents_interleave():
    rt, kv, agent, spec = build()
    agent2 = rt.create_agent("agent2", "coordsvc")
    f1 = agent.run_transaction(agent_incr, spec.key(2))
    f2 = agent2.run_transaction(agent_incr, spec.key(2))
    rt.run_for(2000)
    outcomes = [f.result()[0] for f in (f1, f2)]
    assert outcomes.count("committed") == 2
    assert kv.read_object(spec.key(2)) == 2


def test_commit_survives_coordinator_primary_crash():
    """The coordinator-server is replicated: its primary crashing after the
    committing record is forced must not lose the transaction."""
    rt, kv, agent, spec = build(seed=42)
    outcome = agent.run_transaction(agent_two_keys, spec.key(3), spec.key(4))
    rt.run_for(600)
    assert outcome.result()[0] == "committed"
    coordsvc = rt.groups["coordsvc"]
    coordsvc.crash_primary()
    rt.run_for(2000)
    rt.quiesce()
    assert kv.read_object(spec.key(3)) == 1
    assert kv.read_object(spec.key(4)) == 1
    rt.check_invariants()


def test_agent_retries_after_coordinator_failover():
    rt, kv, agent, spec = build(seed=43)
    first = agent.run_transaction(agent_incr, spec.key(5))
    rt.run_for(600)
    assert first.result()[0] == "committed"
    rt.groups["coordsvc"].crash_primary()
    rt.run_for(300)
    second = agent.run_transaction(agent_incr, spec.key(5))
    rt.run_for(2500)
    assert second.result()[0] == "committed"
    assert kv.read_object(spec.key(5)) == 2


def test_dead_client_unilaterally_aborted():
    """'If no reply is forthcoming, it can abort the transaction
    unilaterally' -- and the participant's locks come free."""
    rt, kv, agent, spec = build(seed=44)
    from repro.sim.process import sleep

    def stalls(txn):
        yield txn.call("kv", "incr", spec.key(6), 1)
        yield sleep(50_000.0)

    agent.run_transaction(stalls)
    rt.run_for(200)
    primary = kv.active_primary()
    assert primary.lockmgr.holders_of(spec.key(6))  # lock held
    agent.node.crash()
    rt.run_for(4000)
    primary = kv.active_primary()
    assert primary.lockmgr.holders_of(spec.key(6)) == {}
    assert any("unresponsive" in r for r in rt.ledger.aborted.values())
    assert kv.read_object(spec.key(6)) == 0


def test_live_client_not_aborted_by_probe():
    """A probe answered 'still active' leaves the transaction alone."""
    rt, kv, agent, spec = build(seed=45)
    from repro.sim.process import sleep

    def slow_but_alive(txn):
        yield txn.call("kv", "incr", spec.key(7), 1)
        yield sleep(700.0)  # long think time, but the client is up
        result = yield txn.call("kv", "incr", spec.key(7), 1)
        return result

    outcome = agent.run_transaction(slow_but_alive)
    rt.run_for(5000)
    assert outcome.result()[0] == "committed"
    assert kv.read_object(spec.key(7)) == 2


def test_duplicate_finish_request_answered_from_outcome():
    """A lost FinishTxnReply causes the agent to re-send; the
    coordinator-server answers from its outcomes table."""
    rt, kv, agent, spec = build(seed=46)
    outcome = agent.run_transaction(agent_incr, spec.key(0))
    rt.run_for(1500)
    assert outcome.result()[0] == "committed"
    # Simulate a duplicate finish arriving later.
    from repro.core import messages as m

    coordsvc_primary = rt.groups["coordsvc"].active_primary()
    aid = next(iter(rt.ledger.committed))
    replies = []
    original = agent.handle_message

    def spy(message, source):
        if isinstance(message, m.FinishTxnReplyMsg):
            replies.append(message)
        original(message, source)

    agent.handle_message = spy
    rt.network.send(
        agent.address,
        coordsvc_primary.address,
        m.FinishTxnMsg(aid=aid, decision="commit", pset_pairs=(),
                       aborted_subactions=(), client=agent.address),
    )
    rt.run_for(100)
    assert replies and replies[0].outcome == "committed"


def test_agent_with_unreachable_coordinator_server_resolves_aborted():
    """Every coordinator-server cohort is down through the begin's
    patience: no aid was handed out, so the transaction resolves
    ``("aborted", None)`` rather than failing its future."""
    rt, kv, agent, spec = build()
    coordsvc = rt.groups["coordsvc"]
    for mid in range(3):
        coordsvc.crash_cohort(mid)
    outcome = agent.run_transaction(agent_incr, spec.key(0))
    rt.run_for(3000)
    assert outcome.done and outcome.exception() is None
    assert outcome.result() == ("aborted", None)
    assert kv.read_object(spec.key(0)) == 0
