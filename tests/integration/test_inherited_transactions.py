"""Transactions a new primary inherits are asked about, never guessed at.

A completed-call record that survives a view change takes its locks with it
(``lockmgr.rematerialize``).  Since background delivery such records normally
do survive, so the new primary's janitor must find out what became of every
transaction it inherited: it queries the coordinator's group from its first
tick, and -- because the old primary may have answered a prepare -- it never
applies the "we never voted" unilateral abort to one of them.  Before this
the lock stayed for the rest of the run and every retry of the key aborted
(``txn.locks.orphaned`` on vrbench's ``failover_lossy``).
"""

import pytest

from repro import LOSSY
from repro.config import QUERY_INTERVAL, BatchConfig, ProtocolConfig
from repro.core import messages as m
from repro.core.events import Committing
from repro.core.view import View
from repro.core.viewstamp import Viewstamp
from repro.harness.common import build_kv_system
from repro.txn.pset import PSetPair
from repro.workloads.loadgen import run_closed_loop

from tests.integration.test_send_once import STEADY


def _orphan_a_write(seed=5):
    """A write whose call completed at the ``kv`` primary and reached a
    backup, whose reply was lost, and whose primary then crashed: the client
    gives up ("no reply from kv"), its abort goes to a dead cohort, and the
    new primary holds the record and the key's write lock."""
    rt, kv, clients, driver, spec = build_kv_system(seed=seed, link=STEADY)
    rt.run_for(30.0)
    old = kv.active_primary()
    coordinator = clients.active_primary()
    rt.network.fail_link_oneway(old.node.node_id, coordinator.node.node_id)
    key = spec.key(0)
    attempt = driver.call("clients", "write", "kv", key, 1)
    while rt.metrics.counters.get("calls_completed:kv", 0) == 0:
        rt.run_for(0.25)
    rt.run_for(1.5)              # the push is at a backup
    old.node.crash()
    return rt, kv, clients, driver, key, attempt


def _await_view(rt, group, deadline=1_000.0):
    while group.active_primary() is None and rt.sim.now < deadline:
        rt.run_for(0.5)
    return group.active_primary(), rt.sim.now


def _resolve(rt, future, deadline=5_000.0):
    while not future.done and rt.sim.now < deadline:
        rt.run_for(1.0)
    return future.result()[0]


def test_an_inherited_lock_is_released_by_the_first_janitor_tick():
    rt, kv, clients, driver, key, attempt = _orphan_a_write()
    primary, view_at = _await_view(rt, kv)
    (aid,) = primary.pending                        # inherited, lock and all
    assert list(primary.store.get(key).lockers) == [aid]
    assert _resolve(rt, attempt) == "aborted"
    # The coordinator's view never changed and it recorded the abort: its
    # outcomes table answers the query (query_outcome's first branch).
    assert clients.active_primary().query_outcome(aid) == ("aborted", ())
    retry = driver.call("clients", "write", "kv", key, 2)   # waits on the lock
    assert _resolve(rt, retry) == "committed"
    assert rt.sim.now <= view_at + 2 * QUERY_INTERVAL
    assert rt.metrics.counters["aborts_via_query:kv"] == 1
    rt.quiesce()
    assert primary.store.get(key).base == 2 and not primary.store.get(key).lockers
    rt.check_invariants()


def test_a_coordinator_that_changed_view_too_answers_aborted_by_inference():
    """The other definitive branch: the coordinator's primary crashes while
    the attempt is still running, so no abort record exists anywhere -- the
    transaction was born in an older view of its group and left no
    committing record, which is proof that it can never commit."""
    rt, kv, clients, driver, key, _attempt = _orphan_a_write()
    clients.active_primary().node.crash()
    primary, kv_view_at = _await_view(rt, kv)
    coordinator, clients_view_at = _await_view(rt, clients)
    (aid,) = primary.pending
    assert coordinator.outcomes.get(aid) is None and aid not in coordinator.committing
    assert aid.viewid < coordinator.cur_viewid
    assert coordinator.query_outcome(aid) == ("aborted", ())
    retry = driver.call("clients", "write", "kv", key, 2)
    while _resolve(rt, retry) != "committed":       # first try may meet a stale cache
        retry = driver.call("clients", "write", "kv", key, 2)
    assert rt.sim.now <= max(kv_view_at, clients_view_at) + 2 * QUERY_INTERVAL
    rt.quiesce()
    assert not primary.store.get(key).lockers


def test_an_inherited_transaction_is_never_aborted_unilaterally():
    """Its coordinator's group unreachable for ten janitor ticks: the lock
    stands (six silent ticks abort a transaction that *ran* here, because
    this primary knows it never voted; about an inherited one it cannot
    know).  When the partition heals the first answer releases it."""
    rt, kv, _clients, _driver, key, _attempt = _orphan_a_write()
    rt.network.partition([[node.node_id for node in kv.nodes()]])
    primary, view_at = _await_view(rt, kv)
    (aid,) = primary.pending
    rt.run_for(view_at + 10.5 * QUERY_INTERVAL - rt.sim.now)
    assert kv.active_primary() is primary
    assert list(primary.store.get(key).lockers) == [aid]
    assert "unilateral_aborts:kv" not in rt.metrics.counters
    assert rt.metrics.messages_sent["QueryMsg"] >= 10 * 3    # asked every tick
    rt.network.heal()
    rt.run_for(1.5 * QUERY_INTERVAL)
    assert not primary.store.get(key).lockers
    assert rt.metrics.counters["aborts_via_query:kv"] == 1
    assert "unilateral_aborts:kv" not in rt.metrics.counters


def test_a_transaction_that_ran_here_still_aborts_after_six_silent_ticks():
    """The rule the inherited case is exempt from, unchanged."""
    rt, kv, clients, driver, spec = build_kv_system(seed=6, link=STEADY)
    rt.run_for(30.0)
    primary = kv.active_primary()
    key = spec.key(1)
    driver.call("clients", "write", "kv", key, 1)
    while rt.metrics.counters.get("calls_completed:kv", 0) == 0:
        rt.run_for(0.25)
    rt.network.partition([[node.node_id for node in kv.nodes()]])
    rt.run_for(7 * QUERY_INTERVAL)
    assert rt.metrics.counters["unilateral_aborts:kv"] == 1
    assert not primary.store.get(key).lockers


@pytest.mark.parametrize(
    "seed, batched",
    [(1595, False), (1598, False), (1605, True), (1608, True)],
)
def test_a_same_key_retry_loop_commits_across_primary_crashes(seed, batched):
    """ROADMAP's reproduction of the leak: 60 distinct-key writes, each
    retried *on its own key* until it commits, lossy links, three primary
    crashes.  At the parent 14 of seeds 1595-1614 lost a job in either mode
    (these four: 52, 59, 38 and 37 of 60 committed, one to three keys locked
    for good); with inherited transactions queried all 20 commit all 60."""
    count = 60
    rt, kv, _clients, driver, spec = build_kv_system(
        seed=seed, n_cohorts=3, n_keys=count, link=LOSSY,
        config=ProtocolConfig(batch=BatchConfig(enabled=batched)),
    )
    jobs = [("write", ("kv", spec.key(i), i)) for i in range(count)]
    stats = run_closed_loop(rt, driver, "clients", jobs, concurrency=2, max_attempts=None)
    for _round in range(3):
        rt.run_for(150.0)
        primary = kv.active_primary()
        assert primary is not None
        primary.node.crash()
        rt.run_for(300.0)
        primary.node.recover()
    while stats.committed < count and rt.sim.now < 20_000.0:
        rt.run_for(100.0)
    rt.quiesce(duration=600.0)
    assert stats.committed == count
    # No lock is held at quiesce by a transaction the ledger calls aborted
    # (here: no lock at all -- every job has resolved).
    store = kv.active_primary().store
    held = {aid for uid in store.uids() for aid in store.get(uid).lockers}
    assert not held & set(rt.ledger.aborted) and not held
    rt.check_invariants(require_convergence=False)


def test_a_resumed_commit_chasing_a_new_participant_primary_keeps_its_pset():
    """Found by ``python -m repro.gate chaos``: resumed by a new coordinator
    primary, a commit has the committing record but an empty ``Transaction``;
    re-sent from ``txn.pset`` it called every call orphaned: a lost write."""
    rt, kv, clients, _driver, _spec = build_kv_system(seed=5)
    rt.run_for(30.0)
    coordinator, participant = clients.active_primary(), kv.active_primary()
    commits, deliver = [], coordinator.send
    coordinator.send = lambda address, message: (  # phase two stays open
        commits.append(message) if isinstance(message, m.CommitMsg)
        else deliver(address, message)
    )
    aid = coordinator.client_role.mint_aid()
    pset = (PSetPair("kv", Viewstamp(participant.cur_viewid, 7)),)
    coordinator.add_record(Committing(aid=aid, plist=("kv",), pset_pairs=pset))
    coordinator.client_role._resume_commit(aid, ("kv",), pset)
    rt.run_for(100.0)  # a view probe, then the commit and its retries
    sent = len(commits)
    # A rejection naming a newer view: the commit follows it at once.
    successor = (participant.mymid + 1) % 3
    view = (
        participant.cur_viewid.next_for(successor),
        View(primary=successor, backups=tuple(mid for mid in range(3) if mid != successor)),
    )
    coordinator.client_role.on_view_changed(m.ViewChangedMsg(None, *view, aid, "kv"))
    assert sent and len(commits) == sent + 1
    assert {commit.pset_pairs for commit in commits} == {pset}
