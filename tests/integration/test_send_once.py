"""Each record crosses each link once: the transmission discipline end to end.

The buffer's own counters are the witness (``records_sent`` against
``timestamp * len(backups)``): a fault-free run makes no retransmission with
or without a coalescing delay, a message that overtakes an earlier one is held at the backup
instead of being re-sent, a view change's first records survive the
underling's stable write, and one lost message costs exactly one go-back-N
from the sweep.
"""

from collections import defaultdict

import pytest

from repro import LAN
from repro.config import BatchConfig, ProtocolConfig
from repro.core.events import Aborted, NewView
from repro.core.messages import BufferMsg
from repro.harness.common import build_kv_system, run_kv_batch
from repro.net.link import LinkModel
from repro.txn.ids import Aid

STEADY = LinkModel(base_delay=1.0, jitter=0.0)
SLOW = LinkModel(base_delay=3.0, jitter=0.0)
FLOOD_LINK = LinkModel(base_delay=8.0, jitter=0.2)


def _resent(buffer):
    """Records shipped beyond one copy per backup."""
    return buffer.records_sent - buffer.timestamp * len(buffer.backups)


@pytest.mark.parametrize("link", [LAN, FLOOD_LINK], ids=["lan", "8-unit"])
@pytest.mark.parametrize("batched", [False, True], ids=["unbatched", "batched"])
def test_a_fault_free_run_sends_every_record_to_every_backup_exactly_once(batched, link):
    config = ProtocolConfig(batch=BatchConfig(enabled=batched))
    rt, kv, clients, driver, spec = build_kv_system(
        seed=17, n_cohorts=3, n_keys=32, config=config, link=link
    )
    stats = run_kv_batch(rt, driver, spec, 160, read_fraction=0.5, concurrency=8)
    rt.quiesce()
    assert stats.committed == 160
    primary = kv.active_primary()
    buffer = primary.buffer
    assert buffer.timestamp > 100
    assert _resent(buffer) == 0, buffer.records_sent
    # ... pushes included: a pushed record is not sent again by the force,
    # whether it left at once or rode a coalescing tick.
    assert buffer.pushes > 0
    for backup in kv.active_cohorts():
        if backup is not primary:
            assert backup.applied_ts == buffer.timestamp
            assert len(backup.held) == 0
    # Every transaction names kv alone, which decides it (DESIGN.md D17):
    # the coordinator's group adds no record.
    assert clients.active_primary().buffer.timestamp == 0
    assert rt.ledger.view_changes == []


def _quiet_group(seed=5):
    """A settled 3-cohort group on jitter-free links and its members:
    ``first`` is the backup a force ships (the speedy target), ``second`` the
    one the sweep serves."""
    rt, kv, _clients, _driver, _spec = build_kv_system(seed=seed, link=STEADY)
    rt.run_for(30.0)
    primary = kv.active_primary()
    (target,) = primary.buffer._speedy()
    first, second = sorted(
        (c for c in kv.active_cohorts() if c is not primary),
        key=lambda cohort: cohort.mymid != target,
    )
    return rt, kv, primary, first, second


def _force_one_record(primary, n):
    stamp = primary.add_record(Aborted(aid=Aid("kv", primary.cur_viewid, 9000 + n)))
    return primary.force_to(stamp)


def test_a_message_that_overtakes_an_earlier_one_is_held_not_resent():
    rt, _kv, primary, first, _second = _quiet_group()
    base = first.applied_ts
    rt.network.set_link_model(primary.address, first.address, SLOW)
    m1 = _force_one_record(primary, 1)        # to `first` in 3.0 units
    rt.network.clear_link_override(primary.address, first.address)
    rt.run_for(0.5)
    m2 = _force_one_record(primary, 2)        # to `first` in 1.0: overtakes m1
    rt.run_for(2.25)                          # t = 2.75: m2 is there, m1 is not
    assert first.applied_ts == base and len(first.held) == 1
    assert not m1.done and not m2.done        # a held record is not acknowledged
    rt.run_for(0.75)                          # t = 3.5: m1 closed the gap
    assert first.applied_ts == base + 2 and len(first.held) == 0
    rt.run_for(0.75)                          # ... and one ack answers for both
    assert m1.done and m2.done
    rt.quiesce()
    assert primary.buffer.acked[first.mymid] == primary.buffer.timestamp
    assert _resent(primary.buffer) == 0


def test_the_hold_is_dropped_by_a_view_change_and_by_a_crash():
    rt, kv, primary, first, second = _quiet_group()
    old_viewid = primary.cur_viewid
    stranded = LinkModel(base_delay=500.0, jitter=0.0)
    for backup in (first, second):
        rt.network.set_link_model(primary.address, backup.address, stranded)
    _force_one_record(primary, 1)
    primary.buffer.flush()                    # to both, in flight for 500 units
    for backup in (first, second):
        rt.network.clear_link_override(primary.address, backup.address)
    _force_one_record(primary, 2)
    primary.buffer.flush()
    rt.run_for(2.0)
    assert len(first.held) == len(second.held) == 1
    second.node.crash()
    assert len(second.held) == 0              # volatile: gone with the node
    primary.node.crash()                      # `first` must leave the view
    rt.run_for(150.0)
    assert first.max_viewid > old_viewid
    assert len(first.held) == 0               # nothing of the old view survives


def test_one_dropped_message_is_recovered_by_the_sweep_without_a_view_change():
    rt, _kv, primary, first, _second = _quiet_group()
    config = primary.config
    base = first.applied_ts
    rt.network.fail_link_oneway(primary.node.node_id, first.node.node_id)
    force = _force_one_record(primary, 1)     # the one copy sent: dropped
    rt.network.repair_link_oneway(primary.node.node_id, first.node.node_id)
    sent_at = rt.sim.now
    patience = max(config.flush_interval, primary.liveness.detect.rto(first.mymid))
    while not force.done and rt.sim.now < sent_at + 100.0:
        rt.run_for(0.25)
    # The next sweep ships `second`, whose ack is the sub-majority.
    assert rt.sim.now - sent_at <= config.flush_interval + 2.25
    assert first.applied_ts == base
    while first.applied_ts == base and rt.sim.now < sent_at + 100.0:
        rt.run_for(0.25)
    # A full wait without ack progress, then the next sweep, then one hop.
    assert patience <= rt.sim.now - sent_at <= patience + config.flush_interval + 1.25
    assert force.done and first.applied_ts == base + 1
    rt.quiesce()
    assert _resent(primary.buffer) == 1       # one record, one go-back-N, to one backup
    assert primary.buffer.acked[first.mymid] == primary.buffer.timestamp
    assert rt.ledger.view_changes == []


def test_a_new_views_first_records_survive_the_underlings_stable_write():
    """Records shipped while the backup of a new two-member view -- the whole
    sub-majority -- is still writing ``cur_viewid`` are applied the moment it
    installs the newview, not thrown away for a retransmission.  (A 2-unit
    stable write keeps the 5-unit sweep out of the picture.)"""
    config = ProtocolConfig(stable_write_latency=2.0)
    rt, kv, _clients, _driver, _spec = build_kv_system(seed=23, link=STEADY, config=config)
    rt.run_for(30.0)
    kv.crash_cohort(kv.active_primary().mymid)
    while kv.active_primary() is None and rt.sim.now < 500.0:
        rt.run_for(0.25)
    primary = kv.active_primary()             # just activated: newview in flight
    (backup,) = (c for c in kv.cohorts.values() if c.node.up and c is not primary)
    assert primary.buffer.backups == (backup.mymid,)
    rt.run_for(1.5)                           # the backup is mid stable write
    assert backup.view_change._installing
    force = _force_one_record(primary, 1)     # ts 2 arrives before ts 1 is installed
    rt.run_for(1.25)
    assert len(backup.held) == 1 and not force.done
    rt.run_for(1.5)                           # installed at +3.0, its ack back by +4.0
    assert backup.applied_ts == primary.buffer.timestamp == 2 and len(backup.held) == 0
    assert force.done and force.exception() is None
    assert _resent(primary.buffer) == 0


# -- speedy delivery is owed to a sub-majority ---------------------------------


def test_the_speedy_target_crashes_with_a_force_pending_and_the_sweep_resolves_it():
    rt, _kv, primary, first, second = _quiet_group()
    config, buffer = primary.config, primary.buffer
    first.node.crash()
    sent_at = rt.sim.now
    force = _force_one_record(primary, 1)     # shipped to `first` and nobody else
    assert buffer._sent[first.mymid] == buffer.timestamp > buffer._sent[second.mymid]
    while not force.done and rt.sim.now < sent_at + 100.0:
        rt.run_for(0.25)
    # The next sweep, at the latest a go-back-N's wait away, and one round trip.
    rto = primary.liveness.detect.rto(second.mymid)
    assert rt.sim.now - sent_at <= config.flush_interval + rto + 2.0 + 0.25
    assert force.exception() is None and second.applied_ts == buffer.timestamp
    assert rt.ledger.view_changes == [] and primary.buffer is buffer
    # `second` has the highest ack now: the next force is shipped to it.
    assert _force_one_record(primary, 2) and buffer._sent[second.mymid] == buffer.timestamp


def _tap_newviews(rt, drop_first_to=None):
    """``(viewid, destination) -> [send times]`` of every BufferMsg that
    carries a newview record, from now on; the first one to the address
    *drop_first_to* is lost."""
    sends = defaultdict(list)
    deliver = rt.network.send

    def send(source, destination, payload):
        if isinstance(payload, BufferMsg) and isinstance(payload.records[0][1], NewView):
            sends[payload.viewid, destination].append(rt.sim.now)
            if destination == drop_first_to and len(sends[payload.viewid, destination]) == 1:
                return
        deliver(source, destination, payload)

    rt.network.send = send
    return sends


def test_a_view_change_sends_every_backup_its_newview_exactly_once():
    """The whole-state record crosses each link once: a backup cannot
    acknowledge ts 1 before its ``cur_viewid`` write (5.0) lands, and the
    sweep (5.0) waits that much longer for a backup that has yet to join."""
    rt, kv, primary, first, _second = _quiet_group()
    sends = _tap_newviews(rt)
    kv.crash_cohort(first.mymid)              # a view of two ...
    rt.run_for(200.0)
    kv.recover_cohort(first.mymid)            # ... and of three again
    rt.run_for(200.0)
    rt.quiesce()
    assert len(kv.active_cohorts()) == 3 and len(rt.ledger.view_changes_for("kv")) == 2
    assert len(sends) == 1 + 2                # one backup, then two
    assert all(len(times) == 1 for times in sends.values()), dict(sends)
    assert _resent(kv.active_primary().buffer) == 0


def test_a_lost_newview_is_resent_by_the_sweep_after_the_longer_wait():
    rt, kv, primary, first, second = _quiet_group()
    config = primary.config
    sends = _tap_newviews(rt, drop_first_to=second.address)
    kv.crash_cohort(first.mymid)
    rt.run_for(200.0)
    rt.quiesce()
    new_primary = kv.active_primary()
    ((_key, (sent_at, resent_at)),) = sends.items()
    patience = max(config.flush_interval, new_primary.liveness.detect.rto(second.mymid))
    wait = patience + config.stable_write_latency
    assert wait <= resent_at - sent_at <= wait + config.flush_interval
    assert second.applied_ts == new_primary.buffer.timestamp
