"""A transaction every participant of which was read-only commits at the last
accept (DESIGN.md D15): six communication steps, no ``Committing`` record, no
force and no ``Done`` in the coordinator's group.  Anything with a writer in
it keeps Figure 2's phase two exactly.

The safety argument's three parts are what the crash tests exercise: phase
two has no recipient; a participant primary that inherits the call record
without the read-only ``Committed`` holds read locks only, and either answer
to its query releases them without touching state; the client is told at the
commit point, and a coordinator crash before the reply is the ``unknown`` it
always was.
"""

import pytest

from repro import EmptyModule, Runtime, transaction_program
from repro.config import QUERY_INTERVAL
from repro.core import messages as m
from repro.core.events import Committed, Committing, Done
from repro.harness.common import build_kv_system, run_kv_batch
from repro.perf.report import ledger_digest
from repro.workloads.kv import KVStoreSpec

from tests.integration.test_inherited_transactions import _await_view
from tests.integration.test_send_once import STEADY

DELAY = STEADY.base_delay
SIX_STEPS = [
    "TxnRequestMsg", "CallMsg", "ReplyMsg", "PrepareMsg", "PrepareOkMsg", "TxnOutcomeMsg",
]
BACKGROUND = ("BufferMsg", "BufferAckMsg", "ImAliveMsg")


def _tap(rt, on_send=None):
    """Every send from now on as ``(source, destination, payload)``.
    *on_send* sees each first and returns ``"drop"`` to lose it, or a
    callable to run right after the message is on the wire."""
    sends = []
    deliver = rt.network.send

    def send(source, destination, payload):
        verdict = on_send(source, payload) if on_send is not None else None
        if verdict == "drop":
            return
        sends.append((source, destination, payload))
        deliver(source, destination, payload)
        if verdict is not None:
            verdict()

    rt.network.send = send
    return sends


def _records_shipped(sends, group):
    """Event records *group*'s cohorts put in a ``BufferMsg``, each once."""
    addresses = {cohort.address for cohort in group.cohorts.values()}
    shipped = {}
    for source, _destination, payload in sends:
        if source in addresses and isinstance(payload, m.BufferMsg):
            shipped.update(((payload.viewid, ts), record) for ts, record in payload.records)
    return list(shipped.values())


def _quiet_kv(seed=5):
    """Settled 3 + 3 cohorts on jitter-free links; one read has warmed the
    driver's and the coordinator's view caches, so no probe is due."""
    rt, kv, clients, driver, spec = build_kv_system(seed=seed, link=STEADY)
    rt.run_for(30.0)
    assert _resolve(rt, driver.call("clients", "read", "kv", spec.key(0)))[0] == "committed"
    rt.quiesce()
    rt.metrics.latencies.clear()
    return rt, kv, clients, driver, spec


def _resolve(rt, future, deadline=5_000.0):
    while not future.done and rt.sim.now < deadline:
        rt.run_for(0.25)
    return future.result()


def _settled(rt):
    """Healed and quiet: nothing locked, serializable, replicas converged."""
    for node in rt.nodes.values():
        if not node.up:
            node.recover()
    rt.run_for(6 * QUERY_INTERVAL)
    rt.quiesce()
    assert rt.lock_residue() == []
    rt.check_invariants()


# -- (a) the six-step flow ----------------------------------------------------


def test_a_read_commits_in_six_steps_and_ships_nothing_at_the_coordinator():
    rt, kv, clients, driver, spec = _quiet_kv()
    coordinator = clients.active_primary()
    records_before = coordinator.buffer.timestamp
    sends = _tap(rt)
    started = rt.sim.now
    status, value = _resolve(rt, driver.call("clients", "read", "kv", spec.key(3)))
    elapsed = rt.sim.now - started
    rt.quiesce()
    assert (status, value) == ("committed", 0)
    protocol = [p.msg_type for _s, _d, p in sends if p.msg_type not in BACKGROUND]
    assert protocol == SIX_STEPS
    assert _records_shipped(sends, clients) == []
    assert coordinator.buffer.timestamp == records_before     # no record at all
    assert coordinator.committing == {}
    # ... while the participant's group carried the call and the read-only
    # commit, as Figure 3 has it.
    assert [type(r) for r in _records_shipped(sends, kv)][-1] is Committed
    (force_wait,) = rt.metrics.latencies["prepare_force_wait"].samples
    assert elapsed <= 6 * DELAY + force_wait + 0.25           # _resolve's step
    assert "commit_force_latency" not in rt.metrics.latencies


# -- (b) a writer anywhere keeps phase two -------------------------------------


@transaction_program
def _read_a_write_b(txn, key, value):
    seen = yield txn.call("A", "get", key)
    yield txn.call("B", "put", key, value)
    return seen


def test_reading_at_one_group_and_writing_at_another_still_forces_a_committing():
    rt = Runtime(seed=11, link=STEADY)
    spec = KVStoreSpec(n_keys=4)
    rt.create_group("A", spec, n_cohorts=3)
    group_b = rt.create_group("B", spec, n_cohorts=3)
    clients = rt.create_group("clients", EmptyModule(), n_cohorts=3)
    clients.register_program("read_a_write_b", _read_a_write_b)
    driver = rt.create_driver("driver")
    rt.run_for(30.0)
    sends = _tap(rt)
    result = _resolve(rt, driver.call("clients", "read_a_write_b", spec.key(1), 9))
    rt.quiesce()
    assert tuple(result) == ("committed", 0)
    shipped = _records_shipped(sends, clients)
    assert [type(r) for r in shipped] == [Committing, Done]
    assert shipped[0].plist == ("B",)
    commits = [d for _s, d, p in sends if isinstance(p, m.CommitMsg)]
    assert commits == [group_b.active_primary().address]      # one, and not to A
    assert group_b.active_primary().store.get(spec.key(1)).base == 9
    assert rt.lock_residue() == []
    rt.check_invariants()


# -- the duplicate prepare repeats the first accept's flag --------------------


def test_a_lost_read_only_accept_does_not_fall_back_to_two_phases():
    rt, kv, clients, driver, spec = _quiet_kv()
    lost = []

    def lose_the_first_accept(_source, payload):
        if isinstance(payload, m.PrepareOkMsg) and not lost:
            lost.append(payload)
            return "drop"

    sends = _tap(rt, lose_the_first_accept)
    status, _value = _resolve(rt, driver.call("clients", "read", "kv", spec.key(2)))
    rt.quiesce()
    assert status == "committed" and lost[0].committed
    accepts = [p for _s, _d, p in sends if isinstance(p, m.PrepareOkMsg)]
    assert [p.committed for p in accepts] == [True]           # the duplicate's answer
    assert sum(isinstance(p, m.PrepareMsg) for _s, _d, p in sends) == 2
    assert not any(isinstance(p, m.CommitMsg) for _s, _d, p in sends)
    assert _records_shipped(sends, clients) == []
    assert rt.lock_residue() == []
    rt.check_invariants()


# -- (c) crashes around the one-phase commit point ----------------------------


def test_the_coordinator_crashes_at_a_read_only_commit_point_before_the_reply():
    """Part (iii): the reply dies with the primary, the driver's attempt is
    the ``unknown`` it is today between the force and the reply, and its
    retry is a new transaction.  Nothing was left anywhere to clean up."""
    rt, kv, clients, driver, spec = _quiet_kv()
    coordinator = clients.active_primary()
    before = len(rt.ledger.committed)
    committed_at_the_crash = []

    def crash_instead_of_replying(source, payload):
        if isinstance(payload, m.TxnOutcomeMsg) and not committed_at_the_crash:
            assert source == coordinator.address
            committed_at_the_crash.append(len(rt.ledger.committed))
            coordinator.node.crash()                # the send finds its source down

    _tap(rt, crash_instead_of_replying)
    status, value = _resolve(rt, driver.call("clients", "read", "kv", spec.key(4)))
    assert committed_at_the_crash == [before + 1]   # the commit point was passed
    assert (status, value) == ("committed", 0)      # the retry, a second transaction
    assert len(rt.ledger.committed) == before + 2
    assert _await_view(rt, clients)[0] is not coordinator
    _settled(rt)


@pytest.mark.parametrize("coordinator_survives", [True, False], ids=["committed", "aborted"])
def test_a_participant_primary_crashes_before_its_read_only_committed_ships(
    coordinator_survives,
):
    """Part (ii): the accept got out, the ``Committed`` record did not.  The
    new primary inherits the call record and so the read lock, asks at its
    first janitor tick, and is told ``committed`` by a coordinator that is
    still there (from ``outcomes``) or ``aborted`` by one that is not (born
    in an older view, no committing record).  Either way only a read lock
    goes; the coordinator already told the client ``committed``, and the
    ledger holds no contradiction because no state depended on the answer."""
    rt, kv, clients, driver, spec = _quiet_kv()
    old = kv.active_primary()
    coordinator = clients.active_primary()
    key = spec.key(5)

    def crash_after_accepting(source, payload):
        if isinstance(payload, m.PrepareOkMsg) and source == old.address:
            assert payload.committed
            return old.node.crash

    sends = _tap(rt, crash_after_accepting)
    attempt = driver.call("clients", "read", "kv", key)
    assert tuple(_resolve(rt, attempt)) == ("committed", 0)
    assert not any(isinstance(r, Committed) for r in _records_shipped(sends, kv))
    if not coordinator_survives:
        coordinator.node.crash()
        assert _await_view(rt, clients)[0] is not coordinator
    primary, _at = _await_view(rt, kv)
    (aid,) = primary.pending                                  # inherited
    assert list(primary.store.get(key).lockers) == [aid]
    answer = "committed" if coordinator_survives else "aborted"
    assert clients.active_primary().query_outcome(aid) == (answer, ())
    rt.run_for(QUERY_INTERVAL + 4 * DELAY)
    assert primary.outcomes[aid] == answer and not primary.pending
    assert not primary.store.get(key).lockers
    assert rt.metrics.messages_sent["QueryReplyMsg"] >= 1
    assert primary.store.get(key).base == 0                   # state untouched
    assert aid in rt.ledger.committed and aid not in rt.ledger.aborted
    _settled(rt)
    assert tuple(_resolve(rt, driver.call("clients", "write", "kv", key, 7)))[0] == "committed"


# -- (d) writes are where they were -------------------------------------------


def test_a_write_only_run_is_byte_identical_to_the_two_phase_only_code():
    """No transaction here is read-only, so the one-phase path may move
    nothing: the digest of PR 22's tree, from before that path existed, held
    through PR 23.  Re-recorded once on PR 24, whose forces ship a
    sub-majority (every commit time moves; the store's ``state_digest`` does
    not: ``python -m repro.gate``).  Re-recorded again when a write whose
    pset names ``kv`` alone began to commit at its prepare (DESIGN.md D17):
    ``CommitMsg`` / ``CommitAckMsg`` 120 -> 0 each, ``BufferMsg`` /
    ``BufferAckMsg`` 402 -> 265 each, janitor ``QueryMsg`` 33 -> 0
    (``QueryReplyMsg`` 8 -> 0), ``ImAliveMsg`` 507 -> 586, 2 408 -> 1 932
    messages and 3 571 -> 3 090 events; commit times are the participant's.
    And once more when a backup that trusts its primary stopped beaconing its
    fellow backups (DESIGN.md D19): ``ImAliveMsg`` 586 -> 369; the network
    draws fewer delays, so the same writes meet the sweeps differently,
    ``BufferMsg`` / ``BufferAckMsg`` 265 -> 235 each; 1 932 -> 1 655 messages and 3 090 ->
    2 815 events."""
    rt, _kv, _clients, driver, spec = build_kv_system(seed=18)
    stats = run_kv_batch(rt, driver, spec, 120, read_fraction=0.0, concurrency=8)
    rt.quiesce()
    assert stats.committed == 120
    assert ledger_digest(rt) == (
        "9e2e2e6b5ae7976751ccbfa9043ad9213bf9def8902fb479d7e35a6628448c52"
    )
