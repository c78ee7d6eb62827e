"""A newview record is shared; installing it copies, never aliases.

``activate_as_primary`` puts one frozen ``NewView`` in the buffer.  Every
backup of the view installs that same object, and the primary keeps it for
retransmission, so ``ObjectStore.restore`` and the outcome table each copy
what they take from it.  The lock state a new primary rebuilds is exactly
what the record's pending completed-call records say (section 3.7: locks
survive a view change exactly when their records do).
"""

from repro.core.events import NewView
from repro.harness.common import build_kv_system
from repro.txn.objects import READ, WRITE

from tests.integration.test_send_once import STEADY


def _resolve(rt, future, deadline=5_000.0):
    while not future.done and rt.sim.now < deadline:
        rt.run_for(1.0)
    return future.result()[0]


def _new_view_with_an_inherited_write(seed=5):
    """Five kv cohorts, a few committed writes, then one whose call
    completed and reached the backups but whose primary crashed before the
    reply got out: the next view inherits its record and its write lock."""
    rt, kv, clients, driver, spec = build_kv_system(seed=seed, n_cohorts=5, link=STEADY)
    rt.run_for(30.0)
    for index in range(1, 4):
        assert _resolve(rt, driver.call("clients", "write", "kv", spec.key(index), index)) == (
            "committed"
        )
    old = kv.active_primary()
    rt.network.fail_link_oneway(old.node.node_id, clients.active_primary().node.node_id)
    driver.call("clients", "write", "kv", spec.key(0), 1)
    while rt.metrics.counters.get("calls_completed:kv", 0) < 4:
        rt.run_for(0.25)
    rt.run_for(1.5)  # the push is at the backups
    old.node.crash()
    while kv.active_primary() in (None, old) and rt.sim.now < 1_000.0:
        rt.run_for(0.5)
    primary = kv.active_primary()
    record = primary.buffer._records[0][1]
    assert isinstance(record, NewView)
    joined = []
    while len(joined) < 3 and rt.sim.now < 1_000.0:
        rt.run_for(1.0)  # the newview record reaches the backups
        joined = [
            cohort
            for cohort in kv.active_cohorts()
            if cohort is not primary and cohort.cur_viewid == primary.cur_viewid
        ]
    return rt, driver, spec, primary, record, joined


def _expected_locks(record):
    """``uid -> {aid: (kind, writes)}`` that the pending records imply."""
    expected = {}
    for _viewstamp, call in record.pending:  # by aid, then viewstamp
        for effect in call.effects:
            kind, writes = expected.setdefault(effect.uid, {}).get(call.aid, (READ, ()))
            if effect.kind == WRITE:
                kind = WRITE
            expected[effect.uid][call.aid] = (kind, writes + effect.writes)
    return expected


def _lock_table(cohort):
    return {
        uid: {
            aid: (info.kind, tuple((w.subaction, w.value) for w in info.writes))
            for aid, info in holders.items()
        }
        for uid, holders in cohort.store.lockers.items()
    }


def test_installing_a_newview_copies_the_record():
    rt, driver, spec, primary, record, joined = _new_view_with_an_inherited_write()
    assert len(joined) == 3
    first, second = joined[:2]
    objects, outcomes = dict(record.objects), dict(record.outcomes)
    assert outcomes and len(objects) == spec.n_keys
    second_image, second_outcomes = second.store.snapshot(), dict(second.outcomes)

    # What a backup's commit does: install a base version, record the outcome.
    first.store.install(spec.key(5), 55)
    first.outcomes[next(iter(outcomes))] = "aborted"
    assert record.objects == objects and record.outcomes == outcomes
    assert second.store.snapshot() == second_image
    assert dict(second.outcomes) == second_outcomes

    # And a commit through the protocol at the primary that made the record.
    for _attempt in range(3):  # the first may meet a stale cache
        if _resolve(rt, driver.call("clients", "write", "kv", spec.key(6), 66)) == "committed":
            break
    assert primary.store.base(spec.key(6)) == 66
    assert record.objects == objects and record.outcomes == outcomes


def test_rematerialized_locks_are_exactly_the_pending_records():
    _rt, _driver, spec, primary, record, joined = _new_view_with_an_inherited_write()
    expected = _expected_locks(record)
    assert list(expected) == [spec.key(0)]  # the inherited write, lock and value
    ((kind, writes),) = expected[spec.key(0)].values()
    assert kind == WRITE and [value for _sub, value in writes] == [1]
    assert _lock_table(primary) == expected
    backup = joined[0]
    assert backup.store.lockers == {}  # a backup holds records, not locks
    backup.lockmgr.rematerialize(backup.pending)
    assert _lock_table(backup) == expected
