"""Each record crosses each link once: the transmission discipline end to end.

The buffer's own counters are the witness (``records_sent`` against
``timestamp * len(backups)``): a fault-free run makes no retransmission in
either mode, a message that overtakes an earlier one is held at the backup
instead of being re-sent, a view change's first records survive the
underling's stable write, and one lost message costs exactly one go-back-N
from the sweep.
"""

import pytest

from repro import LAN
from repro.config import BatchConfig, ProtocolConfig
from repro.core.events import Aborted
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
    for group in (kv, clients):
        primary = group.active_primary()
        buffer = primary.buffer
        assert buffer.timestamp > 100
        assert _resent(buffer) == 0, (group.groupid, buffer.records_sent)
        # ... pushes included: a pushed record is not sent again by the force
        # (only kv completes calls, and batched mode ships on its tick).
        assert (buffer.pushes > 0) is (group is kv and not batched)
        for backup in group.active_cohorts():
            if backup is not primary:
                assert backup.applied_ts == buffer.timestamp
                assert len(backup.held) == 0
    assert rt.ledger.view_changes == []


def _quiet_group(seed=5):
    """A settled 3-cohort group on jitter-free links and its members."""
    rt, kv, _clients, _driver, _spec = build_kv_system(seed=seed, link=STEADY)
    rt.run_for(30.0)
    primary = kv.active_primary()
    first, second = (c for c in kv.active_cohorts() if c is not primary)
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
    assert m1.done and m2.done                # the other backup is the sub-majority
    rt.run_for(0.75)                          # t = 3.5: m1 closed the gap
    assert first.applied_ts == base + 2 and len(first.held) == 0
    rt.quiesce()
    assert primary.buffer.acked[first.mymid] == primary.buffer.timestamp
    assert _resent(primary.buffer) == 0


def test_the_hold_is_dropped_by_a_view_change_and_by_a_crash():
    rt, kv, primary, first, second = _quiet_group()
    old_viewid = primary.cur_viewid
    stranded = LinkModel(base_delay=500.0, jitter=0.0)
    for backup in (first, second):
        rt.network.set_link_model(primary.address, backup.address, stranded)
    _force_one_record(primary, 1)             # in flight for 500 units
    for backup in (first, second):
        rt.network.clear_link_override(primary.address, backup.address)
    _force_one_record(primary, 2)
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
    force = _force_one_record(primary, 1)     # the copy for `first` is dropped
    rt.network.repair_link_oneway(primary.node.node_id, first.node.node_id)
    sent_at = rt.sim.now
    patience = max(config.flush_interval, primary.detect.rto(first.mymid))
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
