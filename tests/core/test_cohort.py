"""Direct unit tests of cohort behaviour: dispatch, rejection, records."""

import pytest

from repro import Runtime
from repro.core import messages as m
from repro.core.cohort import Status
from repro.core.events import Aborted, Committing, Done, ViewEdit
from repro.core.view import View
from repro.core.viewstamp import ViewId, Viewstamp
from repro.txn.ids import Aid, CallId

from tests.conftest import CounterSpec


def build(n=3, seed=0):
    rt = Runtime(seed=seed)
    group = rt.create_group("g", CounterSpec(), n_cohorts=n)
    return rt, group


def aid_for(cohort, seq=1):
    return Aid("someclient", cohort.cur_viewid, seq)


def test_initial_bootstrap_state():
    rt, group = build()
    for mid, cohort in group.cohorts.items():
        assert cohort.status is Status.ACTIVE
        assert cohort.up_to_date
        assert cohort.cur_viewid == ViewId(1, 0)
        assert cohort.history.latest == Viewstamp(ViewId(1, 0), 0)
    assert group.cohort(0).is_primary
    assert not group.cohort(1).is_primary


def test_stable_identity_written_at_creation():
    _rt, group = build()
    cohort = group.cohort(1)
    assert cohort.stable.read("mymid") == 1
    assert cohort.stable.read("mygroupid") == "g"
    assert cohort.stable.read("cur_viewid") == ViewId(1, 0)


def test_backup_rejects_call_with_view_info():
    rt, group = build()
    backup = group.cohort(1)
    rejections = []

    class Probe:
        def __init__(self):
            node = rt.create_node("probe-node")
            from repro.sim.node import Actor

            class A(Actor):
                def handle_message(self, message, source):
                    rejections.append(message)

            self.actor = A(node, "probe")
            rt.network.register(self.actor)

    Probe()
    call = m.CallMsg(
        viewid=backup.cur_viewid,
        call_id=CallId(aid_for(backup), 1),
        aid=aid_for(backup),
        proc="get",
        args=(),
        reply_to="probe",
    )
    rt.network.send("probe", backup.address, call)
    rt.run_for(20)
    assert len(rejections) == 1
    assert isinstance(rejections[0], m.ViewChangedMsg)
    assert rejections[0].viewid == backup.cur_viewid
    assert rejections[0].view == backup.cur_view


def test_primary_rejects_stale_viewid_call():
    """A call carrying an old viewid is rejected with the current view."""
    rt, group = build()
    primary = group.cohort(0)
    replies = []
    from repro.sim.node import Actor

    class Sink(Actor):
        def handle_message(self, message, source):
            replies.append(message)

    sink = Sink(rt.create_node("sink-node"), "sink")
    rt.network.register(sink)
    stale = ViewId(0, 0)
    aid = aid_for(primary)
    rt.network.send(
        "sink",
        primary.address,
        m.CallMsg(
            viewid=stale,
            call_id=CallId(aid, 1),
            aid=aid,
            proc="get",
            args=(),
            reply_to="sink",
        ),
    )
    rt.run_for(20)
    assert len(replies) == 1
    assert isinstance(replies[0], m.ViewChangedMsg)
    assert replies[0].viewid == primary.cur_viewid


def test_view_probe_reports_active_view():
    rt, group = build()
    from repro.sim.node import Actor

    replies = []

    class Sink(Actor):
        def handle_message(self, message, source):
            replies.append(message)

    sink = Sink(rt.create_node("sink-node"), "sink")
    rt.network.register(sink)
    rt.network.send("sink", group.cohort(2).address, m.ViewProbeMsg(reply_to="sink"))
    rt.run_for(20)
    assert len(replies) == 1
    assert replies[0].active
    assert replies[0].viewid == ViewId(1, 0)
    assert replies[0].view == View(primary=0, backups=(1, 2))


def test_add_record_advances_history_and_timestamp():
    _rt, group = build()
    primary = group.cohort(0)
    vs1 = primary.add_record(Aborted(aid=aid_for(primary, 1)))
    vs2 = primary.add_record(Aborted(aid=aid_for(primary, 2)))
    assert vs1.ts == 1 and vs2.ts == 2
    assert primary.history.latest == vs2


def test_record_bookkeeping_committing_and_done():
    _rt, group = build()
    primary = group.cohort(0)
    aid = aid_for(primary)
    primary.add_record(Committing(aid=aid, plist=("g",), pset_pairs=()))
    assert aid in primary.committing
    primary.add_record(Done(aid=aid))
    assert aid not in primary.committing


def test_record_bookkeeping_aborted_clears_pending():
    _rt, group = build()
    primary = group.cohort(0)
    aid = aid_for(primary)
    from repro.core.events import CompletedCall

    record = CompletedCall(aid=aid, call_id=CallId(aid, 1), effects=())
    vs = primary.add_record(record)
    assert aid in primary.pending
    primary.add_record(Aborted(aid=aid))
    assert aid not in primary.pending
    assert primary.outcomes[aid] == "aborted"


def test_view_edit_record_updates_view():
    _rt, group = build()
    primary = group.cohort(0)
    primary.add_record(ViewEdit(backups=(1,)))
    assert primary.cur_view == View(primary=0, backups=(1,))


def test_backup_applies_records_in_order():
    rt, group = build()
    primary = group.cohort(0)
    aid = aid_for(primary)
    primary.add_record(Committing(aid=aid, plist=(), pset_pairs=()))
    primary.buffer.flush()
    rt.run_for(20)
    backup = group.cohort(1)
    assert backup.applied_ts == 1
    assert aid in backup.committing
    assert backup.history.latest.ts == 1


def test_backup_ignores_gap():
    rt, group = build()
    backup = group.cohort(1)
    # Deliver ts=2 before ts=1: it must not apply.
    record = Aborted(aid=aid_for(backup))
    backup._apply_buffer_records(((2, record),))
    assert backup.applied_ts == 0
    backup._apply_buffer_records(((1, record), (2, record)))
    assert backup.applied_ts == 2


def test_force_to_stable_combines_latencies():
    from repro.config import ProtocolConfig
    from repro.storage.stable import StableStoragePolicy

    config = ProtocolConfig(
        storage_policy=StableStoragePolicy.LOG, stable_write_latency=30.0
    )
    rt = Runtime(seed=0, config=config)
    group = rt.create_group("g", CounterSpec(), n_cohorts=3)
    primary = group.cohort(0)
    vs = primary.add_record(Aborted(aid=aid_for(primary)))
    force = primary.force_to(vs)
    rt.run_for(10)  # backups have acked by now (RTT ~2.2)...
    assert not force.done  # ...but the stable write hasn't finished
    rt.run_for(25)
    assert force.done


def test_crash_resets_volatile_state():
    rt, group = build()
    primary = group.cohort(0)
    primary.add_record(Aborted(aid=aid_for(primary)))
    primary.node.crash()
    assert not primary.up_to_date
    primary.node.recover()
    assert primary.cur_viewid == ViewId(1, 0)  # from stable storage
    assert primary.pending == {}
    assert primary.outcomes.wire() == ()
    assert primary.status is Status.VIEW_MANAGER or not primary.up_to_date


def test_gstate_snapshot_roundtrip_through_newview():
    """activate_as_primary's newview record reconstructs gstate exactly."""
    rt, group = build()
    rt.run_for(50)
    primary = group.cohort(0)
    primary.store.restore({**primary.store.snapshot(), "count": (7, 3)})
    group.cohort(2).node.crash()  # force a view change
    rt.run_for(800)
    new_primary = group.active_primary()
    assert new_primary is not None
    # Whoever leads now, the backups that joined must share the snapshot.
    rt.quiesce()
    for cohort in group.active_cohorts():
        assert cohort.store.get("count").version >= 0  # restored, no crash


def test_peer_address_lookup():
    _rt, group = build()
    cohort = group.cohort(0)
    assert cohort.peer_address(2) == "g/2"
    with pytest.raises(KeyError):
        cohort.peer_address(99)


# -- backup: applying buffer records by index skip ---------------------------


def _per_record_loop(cohort, records):
    """``Cohort._apply_buffer_records`` as it was before the index skip."""
    for ts, record in records:
        if ts != cohort.applied_ts + 1:
            if ts <= cohort.applied_ts:
                continue  # retransmission of something we have
            break  # gap; cumulative ack will trigger a resend
        cohort.applied_ts = ts
        viewstamp = Viewstamp(cohort.cur_viewid, ts)
        cohort.history.advance(cohort.cur_viewid, ts)
        cohort._record_bookkeeping(viewstamp, record, at_backup=True)


def test_backup_skips_retransmitted_prefix_exactly_like_the_loop():
    """A 2 000-pair retransmitted prefix, a pure duplicate, a gapped message
    and an empty one leave applied_ts, history and the bookkeeping calls
    exactly as iterating every pair did."""
    _rt, group = build()
    skipping, looping = group.cohort(1), group.cohort(2)
    calls = {skipping: [], looping: []}
    for cohort in (skipping, looping):
        cohort._record_bookkeeping = (
            lambda viewstamp, record, at_backup, log=calls[cohort]:
            log.append((viewstamp, record, at_backup))
        )
    base = skipping.applied_ts
    assert base == looping.applied_ts
    aid = aid_for(skipping)
    pairs = tuple((ts, Aborted(aid=aid)) for ts in range(base + 1, base + 2101))

    def deliver(records):
        skipping._apply_buffer_records(records)
        _per_record_loop(looping, records)
        assert skipping.applied_ts == looping.applied_ts
        assert skipping.history.entries() == looping.history.entries()
        assert calls[skipping] == calls[looping]
        return skipping.applied_ts

    assert deliver(pairs[:2000]) == base + 2000
    assert deliver(pairs[:2049]) == base + 2049      # 2 000 old pairs, 49 new
    assert len(calls[skipping]) == 2049
    assert deliver(pairs[:2049]) == base + 2049      # pure duplicate
    assert deliver(pairs[500:1500]) == base + 2049   # duplicate from the middle
    assert deliver(pairs[2060:]) == base + 2049      # gap: nothing applies
    assert deliver(()) == base + 2049
    assert deliver(pairs[2048:2050]) == base + 2050  # one old, one new
    assert deliver(pairs[2050:]) == base + 2100      # exactly the next
    assert len(calls[skipping]) == 2100
