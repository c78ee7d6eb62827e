"""A write whose pset names one group commits at its prepare (DESIGN.md D17).

That participant is the only party anybody would tell, so it decides: it
installs, adds its ``Committed`` record, forces it, and only once the force
resolves answers the prepare ``committed=True``.  The coordinator's last
accept is then D15's commit point -- no ``Committing``, force, ``CommitMsg``,
``CommitAckMsg`` or ``Done`` -- and once that prepare is out only the
participant may abort the transaction.  A pset naming two groups keeps
Figure 2's phase two byte for byte.  Riding along: a re-sent commit, like a
re-sent prepare, is answered no sooner than the first, when the
``Committed`` force resolves.
"""

from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import EmptyModule, Runtime, transaction_program
from repro.config import PREPARE_TIMEOUT
from repro.core import messages as m
from repro.core.events import Committed, Committing, CompletedCall, Done
from repro.sim.process import sleep
from repro.workloads.kv import KVStoreSpec

from tests.core.test_read_only_commit import (
    BACKGROUND,
    DELAY,
    QUERY_INTERVAL,
    SIX_STEPS,
    _quiet_kv,
    _records_shipped,
    _resolve,
    _settled,
    _tap,
)
from tests.integration.test_inherited_transactions import _await_view
from tests.integration.test_send_once import STEADY
from tests.shard.test_self_coordination import build_self_group, submit


def _protocol(sends):
    return [p.msg_type for _s, _d, p in sends if p.msg_type not in BACKGROUND]


def _sent(sends, kind):
    return [p for _s, _d, p in sends if isinstance(p, kind)]


def _committed_ts(payload):
    """The timestamp of the ``Committed`` record a ``BufferMsg`` carries, or None."""
    return next((ts for ts, r in payload.records if isinstance(r, Committed)), None)


def _hold_committed(rt, group, answers, answer_type):
    """An ``on_send`` for ``_tap``: the first ``BufferMsg`` carrying the
    group primary's ``Committed`` record is lost, and so is everything the
    primary sends its backups after it (until the links are repaired), so
    that record's force stays pending.  Each *answer_type* the primary sends
    appends to *answers* whether the record was majority-known by then."""
    primary = group.active_primary()
    backups = [c for c in group.active_cohorts() if c is not primary]
    held = []

    def on_send(source, payload):
        if source != primary.address:
            return None
        if isinstance(payload, m.BufferMsg) and not held:
            ts = _committed_ts(payload)
            if ts is not None:
                held.append(ts)
                for backup in backups:
                    rt.network.fail_link_oneway(primary.node.node_id, backup.node.node_id)
                return "drop"
        if isinstance(payload, answer_type):
            answers.append(primary.buffer._sub_majority_ts() >= held[0])
        return None

    def repair():
        for backup in backups:
            rt.network.repair_link_oneway(primary.node.node_id, backup.node.node_id)

    return on_send, held, repair


# -- the message pattern --------------------------------------------------------


def test_a_write_commits_at_its_prepare_in_six_steps_with_no_record_at_the_coordinator():
    rt, kv, clients, driver, spec = _quiet_kv()
    coordinator, participant = clients.active_primary(), kv.active_primary()
    records_before = coordinator.buffer.timestamp
    forced_when_answered = []

    def note(source, payload):
        if isinstance(payload, m.PrepareOkMsg):
            buffer = participant.buffer
            forced_when_answered.append(buffer._sub_majority_ts() == buffer.timestamp)

    sends = _tap(rt, note)
    status, _value = _resolve(rt, driver.call("clients", "write", "kv", spec.key(3), 7))
    rt.quiesce()
    assert status == "committed"
    assert _protocol(sends) == SIX_STEPS
    (accept,) = _sent(sends, m.PrepareOkMsg)
    assert accept.committed and forced_when_answered == [True]
    # Nothing at the coordinator's group: no record, no buffer traffic ...
    assert coordinator.buffer.timestamp == records_before
    assert coordinator.committing == {}
    assert _records_shipped(sends, clients) == []
    kv_addresses = {cohort.address for cohort in kv.cohorts.values()}
    assert {s for s, _d, p in sends if isinstance(p, (m.BufferMsg, m.BufferAckMsg))} <= kv_addresses
    # ... while the participant's group carried the call and the decision.
    assert [type(r) for r in _records_shipped(sends, kv)] == [CompletedCall, Committed]
    assert participant.store.get(spec.key(3)).base == 7
    # The one force that made the commit durable is the participant's.
    assert len(rt.metrics.latencies["commit_force_latency"].samples) == 1
    assert rt.lock_residue() == []
    rt.check_invariants()


def test_a_group_coordinating_itself_forces_a_write_once_past_the_prepare():
    """A sharded group's single-key path: one ``Committed`` force where a
    ``Committing`` and a ``Committed`` force were."""
    rt, group, driver = build_self_group()
    sends = _tap(rt)
    outcome, _ = submit(rt, driver, "write", "g", "k0", 4)
    assert outcome == "committed" and group.read_object("k0") == 4
    assert [type(r) for r in _records_shipped(sends, group)] == [CompletedCall, Committed]
    assert not _sent(sends, (m.CommitMsg, m.CommitAckMsg))
    rt.quiesce()
    assert rt.lock_residue() == []
    rt.check_invariants()


def test_a_two_group_write_keeps_figure_twos_phase_two():
    rt, _a, _b, clients, driver, spec = _two_groups()
    sends = _tap(rt)
    status, _value = _resolve(rt, driver.call("clients", "write_a_and_b", spec.key(1), 9))
    rt.quiesce()
    assert status == "committed"
    assert Counter(_protocol(sends)) == Counter(
        ["TxnRequestMsg", "TxnOutcomeMsg"]
        + 2 * ["CallMsg", "ReplyMsg", "PrepareMsg", "PrepareOkMsg", "CommitMsg", "CommitAckMsg"]
    )
    assert [p.committed for p in _sent(sends, m.PrepareOkMsg)] == [False, False]
    shipped = _records_shipped(sends, clients)
    assert [type(r) for r in shipped] == [Committing, Done]
    assert shipped[0].plist == ("A", "B")
    assert rt.lock_residue() == []
    rt.check_invariants()


# -- answered only once the decision is majority-known -----------------------------


def test_a_lost_accept_is_answered_again_from_the_decision():
    rt, kv, clients, driver, spec = _quiet_kv()
    lost = []

    def lose_the_first_accept(_source, payload):
        if isinstance(payload, m.PrepareOkMsg) and not lost:
            lost.append(payload)
            return "drop"
        return None

    sends = _tap(rt, lose_the_first_accept)
    status, _value = _resolve(rt, driver.call("clients", "write", "kv", spec.key(2), 3))
    rt.quiesce()
    assert status == "committed" and lost[0].committed
    assert [p.committed for p in _sent(sends, m.PrepareOkMsg)] == [True]
    assert len(_sent(sends, m.PrepareMsg)) == 2
    assert [type(r) for r in _records_shipped(sends, kv)] == [CompletedCall, Committed]
    assert _records_shipped(sends, clients) == [] and not _sent(sends, m.CommitMsg)
    assert kv.active_primary().store.get(spec.key(2)).base == 3
    assert rt.lock_residue() == []
    rt.check_invariants()


@pytest.mark.parametrize("force", ["resolves", "is abandoned"])
def test_a_duplicate_prepare_is_answered_only_once_the_pending_force_resolves(force):
    rt, kv, clients, driver, spec = _quiet_kv()
    participant = kv.active_primary()
    answers = []
    on_send, held, repair = _hold_committed(rt, kv, answers, m.PrepareOkMsg)
    sends = _tap(rt, on_send)
    key = spec.key(1)
    attempt = driver.call("clients", "write", "kv", key, 6, retries=0)
    while not held:
        rt.run_for(0.25)
    (prepare,) = _sent(sends, m.PrepareMsg)
    participant.server_role.on_prepare(prepare)         # the duplicate
    rt.run_for(4 * DELAY)
    assert answers == []                                # neither answer yet
    if force == "resolves":
        repair()
        assert _resolve(rt, attempt)[0] == "committed"
        assert len(answers) >= 2 and all(answers)
    else:
        while participant.is_active_primary:            # force_timeout: a view change
            rt.run_for(1.0)
        rt.run_for(QUERY_INTERVAL)
        assert answers == []                            # the old primary never answered
        repair()
    _settled(rt)
    aid = prepare.aid
    assert (aid in rt.ledger.committed) == (kv.active_primary().store.get(key).base == 6)


# -- crashes and patience --------------------------------------------------------


@pytest.mark.parametrize("reached", ["a backup", "nobody"])
def test_the_participant_primary_crashes_with_its_commit_force_pending(reached):
    """The coordinator crashes at the same instant, so the participant's group
    alone can settle it.  A ``Committed`` record that reached a backup makes
    the new primary report the commit once its view's first force resolves;
    one that reached nobody leaves an inherited call, which the new primary
    asks about and is told ``aborted`` (born in the coordinator's older view,
    D4): nobody was told ``committed``, so that answer is true."""
    rt, kv, clients, driver, spec = _quiet_kv()
    old, coordinator = kv.active_primary(), clients.active_primary()
    key = spec.key(4)
    crashed = []

    def crash_both():
        old.node.crash()
        coordinator.node.crash()

    def crash_at_the_committed_record(source, payload):
        if source == old.address and isinstance(payload, m.BufferMsg) and not crashed:
            if _committed_ts(payload) is not None:
                crashed.append(payload)
                rt.sim.schedule(0.0, crash_both)
                return "drop" if reached == "nobody" else None
        return None

    sends = _tap(rt, crash_at_the_committed_record)
    attempt = driver.call("clients", "write", "kv", key, 9, retries=0)
    while not crashed:
        rt.run_for(0.25)
    (prepare,) = _sent(sends, m.PrepareMsg)
    aid = prepare.aid
    primary, _at = _await_view(rt, kv)
    _await_view(rt, clients)
    rt.run_for(2 * QUERY_INTERVAL)
    assert _resolve(rt, attempt)[0] == "unknown"
    if reached == "a backup":
        assert primary.outcomes[aid] == "committed"
        assert primary.store.get(key).base == 9
        assert aid in rt.ledger.committed               # reported by the new primary
    else:
        assert primary.outcomes[aid] == "aborted"
        assert primary.store.get(key).base == 0
        assert aid not in rt.ledger.committed
    assert aid not in rt.ledger.aborted
    _settled(rt)


@pytest.mark.parametrize("how", ["crash", "view change"])
def test_the_coordinator_leaves_after_the_prepare_and_the_participant_commits(how):
    rt, kv, clients, driver, spec = _quiet_kv()
    coordinator = clients.active_primary()
    key = spec.key(6)
    leave = coordinator.node.crash if how == "crash" else coordinator.note_change_needed

    def leave_once_prepared(_source, payload):
        if isinstance(payload, m.PrepareMsg):
            return lambda: rt.sim.schedule(0.0, leave)
        return None

    sends = _tap(rt, leave_once_prepared)
    status = _resolve(rt, driver.call("clients", "write", "kv", key, 8, retries=0))[0]
    rt.run_for(QUERY_INTERVAL)
    (prepare,) = _sent(sends, m.PrepareMsg)
    assert status == "unknown"
    assert prepare.aid in rt.ledger.committed and prepare.aid not in rt.ledger.aborted
    assert kv.active_primary().store.get(key).base == 8
    _settled(rt)


def test_patience_running_out_sends_an_abort_and_decides_nothing():
    rt, kv, clients, driver, spec = _quiet_kv()
    participant = kv.active_primary()
    key = spec.key(7)

    def lose_every_prepare(_source, payload):
        return "drop" if isinstance(payload, m.PrepareMsg) else None

    sends = _tap(rt, lose_every_prepare)
    attempt = driver.call("clients", "write", "kv", key, 5, retries=0)
    rt.run_for(6 * PREPARE_TIMEOUT)  # five rounds of patience
    assert attempt.result()[0] == "unknown"
    ((abort_to, abort),) = [(d, p) for _s, d, p in sends if isinstance(p, m.AbortMsg)]
    assert abort_to == participant.address
    assert abort.aid not in rt.ledger.committed and abort.aid not in rt.ledger.aborted
    assert participant.outcomes[abort.aid] == "aborted"  # the participant decided
    assert participant.store.get(key).base == 0
    _settled(rt)


@transaction_program
def _write_then_think(txn, key, value):
    yield txn.call("kv", "put", key, value)
    yield sleep(20.0)
    return value


def test_a_deposed_coordinator_sends_no_prepare():
    """The view change at the client group reported the transaction aborted;
    a prepare sent when its program resumed would let kv commit it."""
    rt, kv, clients, driver, spec = _quiet_kv()
    clients.register_program("write_then_think", _write_then_think)
    coordinator = clients.active_primary()
    key = spec.key(8)
    sends = _tap(rt)
    driver.call("clients", "write_then_think", key, 4, retries=0)
    while not _sent(sends, m.ReplyMsg):
        rt.run_for(0.25)
    rt.run_for(2 * DELAY)                               # the reply is in; the program thinks
    coordinator.note_change_needed()
    rt.run_for(40.0)                                    # past the think time
    assert not _sent(sends, m.PrepareMsg)
    (call,) = _sent(sends, m.CallMsg)
    assert rt.ledger.aborted[call.aid] == "view change at client group"
    _settled(rt)
    assert kv.active_primary().store.get(key).base == 0


# -- the fix that rides along: a re-sent commit waits for the first one's force ----


@transaction_program
def _write_a_and_b(txn, key, value):
    yield txn.call("A", "put", key, value)
    yield txn.call("B", "put", key, value)
    return value


def _two_groups(seed=11):
    """Settled groups A and B and a client group on jitter-free links; one
    write of key 3's value has warmed every view cache, so no probe is due."""
    rt = Runtime(seed=seed, link=STEADY)
    spec = KVStoreSpec(n_keys=4)
    group_a = rt.create_group("A", spec, n_cohorts=3)
    group_b = rt.create_group("B", spec, n_cohorts=3)
    clients = rt.create_group("clients", EmptyModule(), n_cohorts=3)
    clients.register_program("write_a_and_b", _write_a_and_b)
    driver = rt.create_driver("driver")
    rt.run_for(30.0)
    warm = driver.call("clients", "write_a_and_b", spec.key(3), 0)
    assert _resolve(rt, warm)[0] == "committed"
    rt.quiesce()
    return rt, group_a, group_b, clients, driver, spec


@pytest.mark.parametrize("force", ["resolves", "is abandoned"])
def test_a_re_sent_commit_is_acknowledged_only_once_its_force_resolves(force):
    """``CommitMsg`` for a two-group write, the participant's ``Committed``
    force held pending, and the commit delivered again: no ``CommitAckMsg``
    may leave before that force resolves, and none if it is abandoned (the
    coordinator would write ``Done`` and forget the pset on an ack nothing
    backs)."""
    rt, _a, group_b, _clients, driver, spec = _two_groups()
    participant = group_b.active_primary()
    acks = []
    on_send, held, repair = _hold_committed(rt, group_b, acks, m.CommitAckMsg)
    sends = _tap(rt, on_send)
    key = spec.key(2)
    attempt = driver.call("clients", "write_a_and_b", key, 5, retries=0)
    while not held:
        rt.run_for(0.25)
    (commit,) = [p for _s, d, p in sends if isinstance(p, m.CommitMsg) and d == participant.address]
    participant.server_role.on_commit(commit)           # the re-sent commit
    rt.run_for(4 * DELAY)
    assert acks == []
    if force == "resolves":
        repair()
        assert _resolve(rt, attempt)[0] == "committed"
        rt.quiesce()
        assert len(acks) >= 2 and all(acks)
    else:
        assert _resolve(rt, attempt)[0] == "committed"  # the coordinator's force decided
        while participant.is_active_primary:
            rt.run_for(1.0)
        rt.run_for(QUERY_INTERVAL)
        assert acks == []
        repair()
    _settled(rt)
    assert group_b.active_primary().store.get(key).base == 5


# -- the property ---------------------------------------------------------------


@transaction_program
def _write_a(txn, key, value):
    yield txn.call("A", "put", key, value)
    return value


crash_points = st.lists(
    st.tuples(st.floats(0.5, 30.0), st.sampled_from(["A", "B", "clients"])),
    max_size=3,
)


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(0, 10_000),
    two_group=st.lists(st.booleans(), min_size=1, max_size=8),
    crashes=crash_points,
)
def test_sole_and_two_group_writes_under_crashes_are_decided_once(seed, two_group, crashes):
    """Whatever the mix and wherever a primary crashes: no aid is both
    committed and aborted, the ledger is serializable, and nothing stays
    locked once everything is healed and quiet."""
    rt, group_a, group_b, clients, driver, spec = _two_groups(seed)
    clients.register_program("write_a", _write_a)
    groups = {"A": group_a, "B": group_b, "clients": clients}
    attempts = [
        driver.call(
            "clients", "write_a_and_b" if both else "write_a", spec.key(i % 4), i + 1,
            retries=1,
        )
        for i, both in enumerate(two_group)
    ]
    at = 0.0
    for delay, name in crashes:
        at += delay
        rt.sim.schedule(at, groups[name].crash_primary)
    rt.run_for(at + 100.0)
    for group in groups.values():
        for cohort in group.cohorts.values():
            if not cohort.node.up:
                cohort.node.recover()
    deadline = rt.sim.now + 5_000.0
    while not all(a.done for a in attempts) and rt.sim.now < deadline:
        rt.run_for(50.0)
    rt.run_for(6 * QUERY_INTERVAL)
    rt.quiesce()
    assert not set(rt.ledger.committed) & set(rt.ledger.aborted)
    rt.check_invariants(require_convergence=False)
    assert rt.lock_residue() == []
