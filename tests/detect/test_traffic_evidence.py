"""Buffer traffic as evidence of life: detection is not lazier for it.

A buffer message or ack heard from a peer is the evidence an ``ImAliveMsg``
is (the cohort's two buffer rows feed the failure detector), and the beacon
a link's own traffic makes redundant is not sent.  These tests hold the detector to what it promised when every link carried
a beacon every interval: a dead peer is suspected as soon, a live one whose
only sign of life is its acks never is, and the accrual baseline does not
widen.
"""

import pytest

from repro.config import IM_ALIVE_INTERVAL as INTERVAL
from repro.core import messages as m
from repro.harness.common import build_kv_system
from repro.sim.process import sleep, spawn

#: one-way LAN delay at most: evidence sent at the instant of a crash
IN_FLIGHT = 1.2


def _steady_writes(rt, driver, spec, every=3.0):
    """One unawaited write per *every* units, for as long as the run lasts."""

    def writer():
        for index in range(10**6):
            driver.call("clients", "write", "kv", spec.key(index % spec.n_keys), index)
            yield sleep(every)

    spawn(rt.sim, writer(), name="steady-writes")


def _first_suspicion(rt, observer, target):
    for event in rt.ledger.detector_events:
        if (event.groupid, event.kind, event.observer, event.target) == (
            "kv", "suspect", observer, target
        ):
            return event.at
    return None


# -- one message at a time ---------------------------------------------------------


def _primary_cut_off_from_backup_1(seed):
    """A fresh group whose primary hears nothing of backup 1 but what the
    test hands it."""
    rt, kv, _clients, _driver, _spec = build_kv_system(seed=seed)
    primary, backup = kv.active_primary(), kv.cohort(1)
    assert primary.mymid != 1
    rt.faults.fail_link_oneway(backup.node.node_id, primary.node.node_id)
    ack = m.BufferAckMsg(viewid=primary.cur_viewid, acked_ts=0, mid=1)
    return rt, primary, lambda: primary.handle_message(ack, backup.address), ack


def test_an_unstamped_ack_is_heard_and_is_no_sample_for_the_estimators():
    rt, primary, deliver, _ack = _primary_cut_off_from_backup_1(seed=19)
    for _ in range(60):
        rt.run_for(1.7)
        deliver()
    assert primary.liveness.detect.last_heard(1) == rt.sim.now
    assert primary.liveness.detect.rto(1) is None
    assert primary.liveness.detect.peers[1].mean_interval is None
    assert _first_suspicion(rt, primary.mymid, 1) is None  # 102 units on


def test_a_stamped_ack_is_a_beacon_to_the_estimators():
    rt, primary, deliver, ack = _primary_cut_off_from_backup_1(seed=20)
    rt.run_for(4.0)
    deliver()
    rt.run_for(4.0)
    ack.sent_at = rt.sim.now - 1.0  # one-way 1.0: an RTT sample of 2.0
    deliver()
    assert primary.liveness.detect.rto(1) == pytest.approx(2.0 + 4 * 1.0)
    assert primary.liveness.detect.peers[1].mean_interval == pytest.approx(4.0)
    assert primary.liveness.detect.expected_interval(1) == INTERVAL


def test_an_ack_from_a_suspected_peer_ends_the_suspicion():
    rt, primary, deliver, _ack = _primary_cut_off_from_backup_1(seed=21)
    rt.run_for(6 * INTERVAL)

    def events():
        return [
            event.kind
            for event in rt.ledger.detector_events
            if (event.observer, event.target) == (primary.mymid, 1)
        ]

    assert events() == ["suspect"]
    deliver()
    assert events() == ["suspect", "trust"]
    assert primary.liveness.detect.last_heard(1) == rt.sim.now


# -- the group's half -----------------------------------------------------------


@pytest.mark.parametrize("traffic", [True, False], ids=["steady_writes", "idle"])
def test_a_crashed_primary_is_suspected_as_soon_as_under_beacons_alone(traffic):
    rt, kv, _clients, driver, spec = build_kv_system(seed=22)
    if traffic:
        _steady_writes(rt, driver, spec)
    rt.run_for(20 * INTERVAL)
    primary = kv.active_primary().mymid
    crashed_at = rt.sim.now
    kv.crash_cohort(primary)
    rt.run_for(10 * INTERVAL)
    # Silence is measured from the last evidence (at most IN_FLIGHT after
    # the crash) and tested once per heartbeat round.
    deadline = crashed_at + IN_FLIGHT + rt.config.suspect_timeout() + INTERVAL
    for backup in kv.cohorts:
        if backup != primary:
            at = _first_suspicion(rt, backup, primary)
            assert at is not None and crashed_at < at <= deadline, (backup, at)


def _drop_beacons(rt, source, destination):
    """No ``ImAliveMsg`` of *source* reaches *destination* (both cohorts)."""
    deliver = rt.network.send

    def send(src, dst, payload):
        if (src, dst) != (source.address, destination.address) or not isinstance(
            payload, m.ImAliveMsg
        ):
            deliver(src, dst, payload)

    rt.network.send = send


def test_a_backup_heard_only_through_its_acks_is_never_suspected():
    rt, kv, _clients, driver, spec = build_kv_system(seed=23)
    primary, backup = kv.active_primary(), kv.cohort(1)
    assert primary.mymid != 1
    _drop_beacons(rt, backup, primary)
    _steady_writes(rt, driver, spec)
    rt.run_for(60 * INTERVAL)
    assert _first_suspicion(rt, primary.mymid, 1) is None
    assert rt.ledger.view_changes == []
    assert rt.sim.now - primary.liveness.detect.last_heard(1) < 0.5 * INTERVAL
    assert rt.metrics.counters["heartbeats_suppressed:kv"] > 0


@pytest.mark.parametrize("failure", ["crash", "directed_link_cut"])
def test_a_backup_that_stops_acking_and_beaconing_is_still_suspected(failure):
    rt, kv, _clients, driver, spec = build_kv_system(seed=24)
    primary, backup = kv.active_primary(), kv.cohort(1)
    assert primary.mymid != 1
    _steady_writes(rt, driver, spec)
    rt.run_for(20 * INTERVAL)
    failed_at = rt.sim.now
    if failure == "crash":
        kv.crash_cohort(1)
    else:
        rt.faults.fail_link_oneway(backup.node.node_id, primary.node.node_id)
    rt.run_for(10 * INTERVAL)
    at = _first_suspicion(rt, primary.mymid, 1)
    deadline = failed_at + IN_FLIGHT + rt.config.suspect_timeout() + INTERVAL
    assert at is not None and failed_at < at <= deadline, at


def _detector_events(rt, observer, since):
    return [
        (event.kind, event.target)
        for event in rt.ledger.detector_events
        if event.observer == observer and event.at >= since
    ]


def test_a_recovered_cohort_that_hears_a_live_peer_records_no_suspicion_of_it():
    """Hearing a peer after a long silence is not a suspicion of it: the
    beacon row asks whether the peer *was* silent without recording it."""
    rt, kv, _clients, _driver, _spec = build_kv_system(seed=26)
    rt.run_for(20 * INTERVAL)
    kv.crash_cohort(2)
    rt.run_for(20 * rt.config.suspect_timeout())  # aged out at recovery
    recovered_at = rt.sim.now
    kv.recover_cohort(2)
    rt.run_for(20 * INTERVAL)
    recovered = kv.cohort(2)
    assert recovered.cur_viewid == kv.active_primary().cur_viewid
    assert all(recovered.liveness.detect.last_heard(peer) > recovered_at for peer in (0, 1))
    assert _detector_events(rt, 2, recovered_at) == []


def test_an_excluded_cohorts_beacon_still_triggers_the_re_add_sweep():
    rt, kv, _clients, _driver, _spec = build_kv_system(seed=27)
    rt.run_for(20 * INTERVAL)
    kv.crash_cohort(2)
    rt.run_for(20 * INTERVAL)
    primary = kv.active_primary()
    assert primary.mymid == 0 and 2 not in primary.cur_view
    assert primary.liveness.suspects(2)  # suspected since the crash
    beacon = m.ImAliveMsg(mid=2, viewid=primary.cur_viewid, sent_at=rt.sim.now)
    primary.handle_message(beacon, kv.cohort(2).address)
    assert primary.status.value == "view_manager"  # at once, not next round
    assert _detector_events(rt, 0, rt.sim.now) == [("trust", 2)]


def test_traffic_arrivals_do_not_widen_the_accrual_baseline():
    rt, kv, _clients, driver, spec = build_kv_system(seed=25)
    _steady_writes(rt, driver, spec)
    primary = kv.active_primary()
    for _ in range(40):
        rt.run_for(1.5 * INTERVAL)
        for cohort in kv.cohorts.values():
            peers = (
                [mid for mid in kv.cohorts if mid != cohort.mymid]
                if cohort is primary
                else [primary.mymid]
            )
            for peer in peers:  # the links that carry buffer traffic
                assert cohort.liveness.detect.expected_interval(peer) == INTERVAL
                assert cohort.liveness.detect.rto(peer) is not None
