"""Bounded silence: suppressing redundant beacons never silences a watched link.

A cohort skips the ``ImAliveMsg`` to a peer it sent a buffer message or ack
within the last half ``IM_ALIVE_INTERVAL`` (``Liveness.send_traffic`` /
``Liveness.beacon``).  Whatever the traffic pattern, each directed link that a
receiver judges -- primary to backup, backup to primary, and any link to a
cohort outside the view -- must still carry something that proves life at
least every 1.5 intervals: the receiver's suspicion threshold
(``suspect_multiplier`` intervals) was sized against a beacon per interval and
keeps its margin only if that holds.  A backup that trusts its primary judges
no fellow backup and beacons none (DESIGN.md D19), so a backup-to-backup link
carries no ``ImAliveMsg`` while both trust the primary.
"""

from collections import defaultdict

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import IM_ALIVE_INTERVAL as INTERVAL
from repro.core import messages as m
from repro.harness.common import build_kv_system

LIVENESS_BEARING = (m.ImAliveMsg, m.BufferMsg, m.BufferAckMsg)


def _record_liveness_sends(rt, group, kinds=LIVENESS_BEARING):
    """``(source mid, destination mid) -> [send times]`` of *kinds* from now on."""
    mids = {address: mid for mid, address in group.cohort(0).configuration}
    sends = defaultdict(list)
    deliver = rt.network.send

    def send(source, destination, payload):
        if isinstance(payload, kinds) and source in mids and destination in mids:
            sends[mids[source], mids[destination]].append(rt.sim.now)
        deliver(source, destination, payload)

    rt.network.send = send
    return sends


def _longest_silence(times, start, end):
    edges = [start, *times, end]
    return max(later - earlier for earlier, later in zip(edges, edges[1:]))


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    gaps=st.lists(
        st.one_of(st.floats(0.0, 4.0), st.floats(0.0, 3.0 * INTERVAL)),
        min_size=1,
        max_size=40,
    ),
)
def test_no_link_is_silent_for_longer_than_one_and_a_half_intervals(seed, gaps):
    rt, kv, _clients, driver, spec = build_kv_system(seed=seed)
    sends = _record_liveness_sends(rt, kv)
    beacons = _record_liveness_sends(rt, kv, m.ImAliveMsg)
    for index, gap in enumerate(gaps):
        rt.run_for(gap)
        driver.call("clients", "write", "kv", spec.key(index % spec.n_keys), index)
    rt.run_for(3 * INTERVAL)
    # Nobody ever stopped trusting the primary.
    assert rt.ledger.view_changes == [] and rt.ledger.detector_events == []
    view = kv.active_primary().cur_view
    for link in [(a, b) for a in kv.cohorts for b in kv.cohorts if a != b]:
        if view.primary in link or not all(mid in view for mid in link):
            # The first round is 0.5-1.5 intervals after start (Liveness.start).
            silence = _longest_silence(sends[link], 0.0, rt.sim.now)
            assert silence <= 1.5 * INTERVAL + 1e-9, (link, silence, sends[link])
        else:
            assert beacons[link] == [], (link, beacons[link])


def test_the_first_beacon_round_after_recovery_reaches_every_peer():
    rt, kv, _clients, driver, spec = build_kv_system(seed=31)
    backup = kv.cohort(1)
    assert not backup.is_primary
    applied = backup.applied_ts
    driver.call("clients", "write", "kv", spec.key(0), 1)
    while backup.applied_ts == applied:
        rt.run_for(0.05)
    assert backup.liveness._served  # it has just acked: a beacon now would be skipped
    kv.crash_cohort(1)
    kv.recover_cohort(1)
    assert backup.liveness._served == {} and backup.liveness._stamped == {}
    sends = _record_liveness_sends(rt, kv)
    rt.run_for(1.5 * INTERVAL)
    for peer in (0, 2):
        assert sends[1, peer], peer
