"""A backup watches its primary, the primary watches the view (DESIGN.md D19).

A backup that trusts its primary beacons only the primary (and any cohort
outside the view) and judges only the primary; its fellow backups are alive
on the primary's word -- ``FailureDetector.vouch`` once per heartbeat round --
for as long as it trusts the primary.  The primary still beacons and judges
every member.  These tests hold the rule to what the all-to-all beacons
guaranteed on the failover path, and to what it newly promises: a cut
between two backups alone is served through the primary.
"""

from collections import defaultdict

import pytest

from repro.config import IM_ALIVE_INTERVAL as INTERVAL
from repro.config import ProtocolConfig, ScaleConfig
from repro.core import messages as m
from repro.harness.common import build_kv_system
from repro.sim.process import sleep, spawn

#: one-way LAN delay at most: evidence sent at the instant of a crash
IN_FLIGHT = 1.2


def _steady_writes(rt, driver, spec, every=3.0):
    def writer():
        for index in range(10**6):
            driver.call("clients", "write", "kv", spec.key(index % spec.n_keys), index)
            yield sleep(every)

    spawn(rt.sim, writer(), name="steady-writes")


def _record(rt, group, kind):
    """``source mid -> [(send time, destination mid, message)]`` of *kind*."""
    mids = {address: mid for mid, address in group.cohort(0).configuration}
    sends = defaultdict(list)
    deliver = rt.network.send

    def send(source, destination, payload):
        if isinstance(payload, kind) and source in mids and destination in mids:
            sends[mids[source]].append((rt.sim.now, mids[destination], payload))
        deliver(source, destination, payload)

    rt.network.send = send
    return sends


def _suspicions(rt, observer, target):
    return [
        event.at
        for event in rt.ledger.detector_events
        if (event.groupid, event.kind, event.observer, event.target)
        == ("kv", "suspect", observer, target)
    ]


def _await_primary(rt, kv, limit=60 * INTERVAL):
    deadline = rt.sim.now + limit
    while kv.active_primary() is None and rt.sim.now < deadline:
        rt.run_for(INTERVAL)
    primary = kv.active_primary()
    assert primary is not None, "no view formed"
    return primary


# -- the primary still watches every member ----------------------------------


@pytest.mark.parametrize("n", [3, 5])
def test_a_crashed_backup_is_suspected_by_the_primary_and_a_view_change_follows(n):
    rt, kv, _clients, driver, spec = build_kv_system(seed=40 + n, n_cohorts=n)
    _steady_writes(rt, driver, spec)
    rt.run_for(20 * INTERVAL)
    primary = kv.active_primary()
    victim = n - 1
    crashed_at = rt.sim.now
    kv.crash_cohort(victim)
    rt.run_for(10 * INTERVAL)
    deadline = crashed_at + IN_FLIGHT + rt.config.suspect_timeout() + INTERVAL
    (at, *_) = _suspicions(rt, primary.mymid, victim)
    assert crashed_at < at <= deadline, at
    assert any(group == "kv" for group, _at in rt.ledger.view_change_started)
    assert victim not in _await_primary(rt, kv).cur_view


def test_under_gossip_the_primary_still_suspects_a_crashed_backup():
    """The primary's word is not first-hand evidence, so gossip never
    relays it back to the primary: a dead backup cannot be kept alive by
    the view that names it."""
    config = ProtocolConfig(scale=ScaleConfig(gossip=True))
    rt, kv, _clients, driver, spec = build_kv_system(
        seed=48, n_cohorts=9, config=config
    )
    _steady_writes(rt, driver, spec)
    rt.run_for(30 * INTERVAL)
    primary = kv.active_primary()
    victim = 8
    crashed_at = rt.sim.now
    kv.crash_cohort(victim)
    rt.run_for(20 * INTERVAL)
    assert [at for at in _suspicions(rt, primary.mymid, victim) if at > crashed_at]
    assert victim not in _await_primary(rt, kv).cur_view


# -- the backups still watch the primary --------------------------------------


@pytest.mark.parametrize("n", [3, 5, 7])
def test_a_crashed_primary_gives_exactly_one_manager(n):
    rt, kv, _clients, driver, spec = build_kv_system(seed=50 + n, n_cohorts=n)
    _steady_writes(rt, driver, spec)
    rt.run_for(20 * INTERVAL)
    old = kv.active_primary()
    assert old.mymid == 0
    invites = _record(rt, kv, m.InviteMsg)
    kv.crash_cohort(0)
    _await_primary(rt, kv)
    rt.run_for(10 * INTERVAL)
    # The highest-priority live backup manages, once, in one round.
    assert sorted(invites) == [1]
    assert {invite.viewid for _at, _to, invite in invites[1]} == {
        old.cur_viewid.next_for(1)
    }
    assert [group for group, _at in rt.ledger.view_change_started] == ["kv"]
    assert kv.active_primary().cur_viewid == old.cur_viewid.next_for(1)


def test_the_round_that_first_suspects_the_primary_beacons_every_peer():
    rt, kv, _clients, driver, spec = build_kv_system(seed=60, n_cohorts=5)
    _steady_writes(rt, driver, spec)
    rt.run_for(20 * INTERVAL)
    beacons = _record(rt, kv, m.ImAliveMsg)
    kv.crash_cohort(0)
    rt.run_for(8 * INTERVAL)
    ((_group, change_at),) = rt.ledger.view_change_started
    active_rounds = 0
    for backup in (1, 2, 3, 4):
        first = _suspicions(rt, backup, 0)[0]
        fellows = {1, 2, 3, 4} - {backup}
        sent = beacons[backup]
        # Until it suspects the primary (or an invitation ends the view for
        # it) a backup beacons no fellow backup...
        quiet_until = min(first, change_at)
        assert not [to for at, to, _msg in sent if at < quiet_until and to in fellows]
        if first <= change_at:
            # ...and the round that first suspects it beacons every one.
            assert {to for at, to, _msg in sent if at == first} >= fellows, backup
            active_rounds += 1
    assert active_rounds >= 1  # the manager's own round, at least


# -- what is new: a cut between backups is served through the primary --------


@pytest.mark.parametrize("cut", ["both_directions", "one_way"])
def test_cutting_one_backup_link_alone_starts_no_view_change(cut):
    rt, kv, _clients, driver, spec = build_kv_system(seed=70)
    a, b = kv.cohort(1).node.node_id, kv.cohort(2).node.node_id
    assert kv.active_primary().mymid == 0
    if cut == "both_directions":
        rt.faults.fail_link(a, b)
    else:
        rt.faults.fail_link_oneway(a, b)
    _steady_writes(rt, driver, spec)
    rt.run_for(60 * INTERVAL)
    assert rt.ledger.view_change_started == []
    assert rt.ledger.detector_events == []
    assert len(rt.ledger.committed) > 100


def test_vouching_feeds_no_rtt_sample_and_leaves_the_cadence_configured():
    rt, kv, _clients, driver, spec = build_kv_system(seed=80, n_cohorts=5)
    _steady_writes(rt, driver, spec)
    rt.run_for(40 * INTERVAL)
    primary = kv.active_primary()
    for backup in kv.cohorts.values():
        if backup is primary:
            continue
        for fellow in primary.cur_view.backups:
            if fellow == backup.mymid:
                continue
            detect = backup.liveness.detect
            assert detect.rto(fellow) is None
            assert detect.peers[fellow].mean_interval is None
            assert detect.expected_interval(fellow) == INTERVAL
            assert detect.last_heard(fellow) == 0.0  # nothing first-hand
            assert rt.sim.now - detect.peers[fellow].vouched_at <= INTERVAL
            assert not detect.silent(fellow)
