"""A newview record is shared; installing it copies, never aliases.

``activate_as_primary`` puts one frozen ``NewView`` in the buffer.  Every
backup of the view installs that same object, and the primary keeps it for
retransmission, so ``ObjectStore.restore`` and the outcome table each copy
what they take from it.  The lock state a new primary rebuilds is exactly
what the record's pending completed-call records say (section 3.7: locks
survive a view change exactly when their records do).

A backup that holds the state its acceptance named is shipped, in place of
that record, a diff of the entries written since the primary's tracking
start (DESIGN.md D25).  Whatever a receiver is sent, it must install what
the full record installs: equal, lagging, older, recovered, or a former
primary holding a write no record carries.  And since a record's image holds
only the entries that differ from the group's initial objects (D26), "what
the full record installs" is read as the whole image: the initial objects
overlaid with the record's, what a receiver got when records carried it all.
"""

import functools

import pytest

from repro.core import messages as m
from repro.core.events import NewView
from repro.core.viewstamp import History
from repro.harness.common import build_kv_system
from repro.net.messages import estimate_size
from repro.txn.ids import OutcomeTable
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
    objects, outcomes = dict(record.objects), record.outcomes
    assert outcomes and objects
    # The record carries the entries written since the initial objects; the
    # installed image reads every object of the group (DESIGN.md D26).
    bases = [second.store.get(spec.key(index)).base for index in range(spec.n_keys)]
    assert bases == [0, 1, 2, 3] + [0] * (spec.n_keys - 4)
    second_image, second_outcomes = second.store.snapshot(), second.outcomes.wire()
    assert second_outcomes == outcomes

    # What a backup's commit does: install a base version, record the outcome
    # (here rewriting one the record holds, which moves it between runs).
    first.store.install(spec.key(5), 55)
    aid = next(aid for aid, outcome in OutcomeTable(outcomes).items() if outcome == "committed")
    first.outcomes[aid] = "aborted"
    assert first.outcomes[aid] == "aborted" and first.outcomes.wire() != outcomes
    assert record.objects == objects and record.outcomes == outcomes
    assert second.store.snapshot() == second_image
    assert second.outcomes.wire() == second_outcomes

    # And a commit through the protocol at the primary that made the record.
    _commit(rt, driver, "write", "kv", spec.key(6), 66)
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


# -- a newview of only what the receiver lacks (DESIGN.md D25) ---------------


def _installs(group):
    """Log every newview install in *group*: the record, the receiver's
    viewstamp and ``up_to_date`` before it, and its gstate right after it,
    before the rest of the record's message is applied.  Also log, per view,
    the full record its primary built and where its written-since sets ran
    from."""
    log, fulls = [], {}
    for cohort in group.cohorts.values():

        def newview(view, reported, cohort=cohort, build=cohort._newview):
            since = cohort._written_since
            full, diffs = build(view, reported)
            fulls[cohort.cur_viewid] = (full, since)
            return full, diffs

        def install(viewid, records, cohort=cohort, install=cohort.install_newview):
            entry = {"mid": cohort.mymid, "viewid": viewid, "record": records[0][1]}
            entry.update(before=cohort.history.latest, up_to_date=cohort.up_to_date)
            entry.update(was_primary=cohort.is_primary, initial=cohort._initial_image)
            log.append(entry)
            install(viewid, records)

        def apply(records, cohort=cohort, apply=cohort._apply_buffer_records):
            if log and log[-1]["mid"] == cohort.mymid and "state" not in log[-1]:
                log[-1]["state"] = _gstate(cohort)
            apply(records)

        cohort._newview, cohort.install_newview = newview, install
        cohort._apply_buffer_records = apply
    return log, fulls


def _gstate(cohort):
    pending = {aid: dict(calls) for aid, calls in cohort.pending.items()}
    return (
        dict(cohort.store.items()),
        cohort.outcomes.wire(),
        pending,
        dict(cohort.committing),
        _lock_table(cohort),
        cohort.store.wire_size() == estimate_size(cohort.store.snapshot()),
        cohort.outcomes.wire_size() == estimate_size(cohort.outcomes.wire()),
    )


def _full_install(record, initial):
    """The gstate a backup holds right after installing *record* in full,
    its image the whole one: *initial* overlaid with the record's."""
    pending = {}
    for viewstamp, call in record.pending:
        pending.setdefault(call.aid, {})[viewstamp] = call
    image = {**initial, **record.objects}
    return (image, record.outcomes, pending, dict(record.committing), {}, True, True)


def _view_change(rt, group, manager, primary, joined):
    """*manager* starts a view change; wait until *primary* leads a newer
    view that every cohort of *joined* has installed."""
    viewid = primary.cur_viewid
    manager.view_change.become_manager()
    while rt.sim.now < 5_000.0:
        rt.run_for(1.0)
        if group.active_primary() is primary and primary.cur_viewid > viewid:
            if all(c.cur_viewid == primary.cur_viewid and c.applied_ts for c in joined):
                return
    raise AssertionError(f"no view change led by {primary} joined by {joined}")


def _commit(rt, driver, *args):
    for _attempt in range(3):  # the first may meet a stale cache
        if _resolve(rt, driver.call("clients", *args)) == "committed":
            return
    raise AssertionError(f"{args} did not commit")


def _receivers_of_every_kind():
    """After the inherited-write view change, kv's primary P leads view
    changes while its backups are:

    - *equal*: at P's own viewstamp, which P wrote past with no record (an
      ``ensure`` of an absent uid, ``(None, 0)``);
    - *lagging*: in P's view but a few records behind;
    - *older*: last in a view before the one P's written-since sets start;
    - *recovered*: crashed and back, so its acceptance is a crashed one;
    - *former*: P itself, after an ``ensure`` no record carries, cut off
      while another cohort leads a view, then a backup of that cohort.

    The client group's primary, which alone records a commit point's
    outcome, leads two view changes of its own."""
    rt, driver, spec, primary, _record, joined = _new_view_with_an_inherited_write()
    kv, clients = primary.runtime.groups["kv"], primary.runtime.groups["clients"]
    logs = {"kv": _installs(kv), "clients": _installs(clients)}
    crashed = next(cohort for cohort in kv.cohorts.values() if not cohort.node.up)
    first, second, third = joined
    cprimary = clients.active_primary()
    cbackups = [c for c in clients.cohorts.values() if c is not cprimary]
    _view_change(rt, clients, cbackups[0], cprimary, cbackups)

    # equal and lagging: P writes with no record, then `second` falls behind.
    _view_change(rt, kv, first, primary, joined)
    _commit(rt, driver, "write", "kv", spec.key(7), 70)
    _commit(rt, driver, "read", "kv", "absent")  # ensure(): (None, 0) at P only
    assert primary.store.version("absent") == 0 and "absent" not in first.store
    rt.network.fail_link_oneway(primary.node.node_id, second.node.node_id)
    _commit(rt, driver, "write", "kv", spec.key(8), 80)
    _commit(rt, driver, "write", "kv", spec.key(9), 90)
    rt.network.repair_link_oneway(primary.node.node_id, second.node.node_id)
    _view_change(rt, kv, second, primary, joined)

    # older: `third` misses a whole view.
    for cohort in kv.cohorts.values():
        if cohort is not third:
            rt.network.fail_link(third.node.node_id, cohort.node.node_id)
    _view_change(rt, kv, first, primary, [first, second])
    _commit(rt, driver, "write", "kv", spec.key(10), 100)
    for cohort in kv.cohorts.values():
        if cohort is not third:
            rt.network.repair_link(third.node.node_id, cohort.node.node_id)
    _view_change(rt, kv, first, primary, joined)

    # recovered
    crashed.node.recover()
    _view_change(rt, kv, first, primary, joined + [crashed])

    # former: P's write with no record must not survive its full install.
    # (Not a read through the protocol: its completed-call record would
    # reach the backups, and the next primary's locks ensure the uid too.)
    others = [cohort for cohort in kv.cohorts.values() if cohort is not primary]
    for cohort in others:
        rt.network.fail_link(primary.node.node_id, cohort.node.node_id)
    primary.store.ensure("absent-too")  # what a lock on an absent uid does
    viewid = primary.cur_viewid
    first.view_change.become_manager()
    leader = primary
    while leader in (None, primary) or leader.cur_viewid <= viewid:
        assert rt.sim.now < 5_000.0, "no view led without P"
        rt.run_for(1.0)
        leader = kv.active_primary()
    for cohort in others:
        rt.network.repair_link(primary.node.node_id, cohort.node.node_id)
    backups = [cohort for cohort in kv.cohorts.values() if cohort is not leader]
    _view_change(rt, kv, backups[0], leader, backups)

    _view_change(rt, clients, cbackups[1], cprimary, cbackups)
    return logs


@functools.lru_cache(maxsize=None)
def _classified_installs():
    """Each newview install of :func:`_receivers_of_every_kind`, as its log
    entry plus ``group``, the receiver's ``kind``, the ``full`` record of
    its view and ``since``, where the primary's written-since sets ran from."""
    logs = _receivers_of_every_kind()
    installs = []
    for group, (log, fulls) in logs.items():
        for entry in log:
            full, since = fulls[entry["viewid"]]
            base = entry["record"].base
            if base is not None:
                latest = full.history_entries[-2]  # the primary's, before this view
                kind = "equal" if base == latest else "lagging"
            elif not entry["up_to_date"]:
                kind = "recovered"
            elif entry["was_primary"]:
                kind = "former"
            elif since is not None and entry["before"] < since:
                kind = "older"
            else:
                kind = "untracked"  # the primary's tables were never sized
            installs.append(dict(entry, group=group, kind=kind, full=full, since=since))
    return installs


@pytest.mark.parametrize(
    "group, kind",
    [
        ("kv", "equal"),
        ("kv", "lagging"),
        ("kv", "older"),
        ("kv", "recovered"),
        ("kv", "former"),
        ("clients", "equal"),  # its commit points' outcomes are on no record
    ],
)
def test_a_receiver_installs_what_the_full_record_installs(group, kind):
    installs = [i for i in _classified_installs() if (i["group"], i["kind"]) == (group, kind)]
    assert installs
    for install in installs:
        assert install["state"] == _full_install(install["full"], install["initial"])


def test_a_diff_goes_to_whoever_holds_its_base_and_nobody_else():
    """A receiver gets a diff exactly when its viewstamp (unchanged since its
    acceptance) is one the primary knows, at or after ``since``."""
    for install in _classified_installs():
        before, since = install["before"], install["since"]
        known = History(install["full"].history_entries).knows(before)
        qualifies = install["up_to_date"] and since is not None and before >= since and known
        assert install["record"].base == (before if qualifies else None), install["kind"]


def test_a_diff_resent_to_a_backup_that_crashed_since_is_ignored():
    """A backup installs its diff, but no ack of it reaches the primary, and
    it crashes and recovers with the new view's viewid already stable.  The
    primary's sweep resends ts 1 -- the same diff, cut from the state the
    crash lost -- and the recovered cohort must not install it, while it
    would install the full record."""
    rt, _driver, _spec, primary, _record, joined = _new_view_with_an_inherited_write()
    kv = primary.runtime.groups["kv"]
    log, fulls = _installs(kv)
    first, second, _third = joined
    rt.network.fail_link_oneway(first.node.node_id, primary.node.node_id)
    _view_change(rt, kv, second, primary, joined)
    viewid = primary.cur_viewid
    (diff,) = [e["record"] for e in log if e["mid"] == first.mymid]
    assert diff.base is not None and primary.buffer.acked[first.mymid] == 0
    first.node.crash()
    first.node.recover()
    assert first.max_viewid == viewid and first.history.latest != diff.base

    controller = first.view_change
    controller.on_buffer_while_underling(m.BufferMsg(viewid, ((1, diff),), 1))
    assert not controller._installing
    full = fulls[viewid][0]
    controller.on_buffer_while_underling(m.BufferMsg(viewid, ((1, full),), 1))
    assert controller._installing
