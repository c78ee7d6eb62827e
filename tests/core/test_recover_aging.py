"""Recovery must age out pre-crash liveness evidence (detector hygiene).

A heartbeat heard before a long downtime is not evidence the peer is
alive *now*, and an inter-arrival cadence learned under pre-crash loss
would make post-recover suspicion far too lazy.  ``Cohort.on_recover``
therefore ages out anything older than one suspect window; evidence
within the window survives (those beats genuinely are recent).
"""


from tests.conftest import build_counter_system


def test_long_downtime_ages_out_last_heard_and_detector_state():
    rt, counter, _clients, driver = build_counter_system(seed=61)
    driver.call("clients", "bump", 1)
    rt.run_for(400)
    victim = counter.cohort(1)
    peers = [mid for mid, _addr in victim.configuration if mid != victim.mymid]
    assert any(victim.liveness.detect.last_heard(mid) > 0.0 for mid in peers)

    counter.crash_cohort(1)
    # Down for many suspect windows: every pre-crash beat goes stale.
    rt.run_for(20 * rt.config.suspect_timeout())
    counter.recover_cohort(1)

    for mid in peers:
        assert victim.liveness.detect.last_heard(mid) == 0.0


def test_short_downtime_keeps_recent_evidence():
    rt, counter, _clients, driver = build_counter_system(seed=62)
    driver.call("clients", "bump", 1)
    rt.run_for(400)
    victim = counter.cohort(1)
    peers = [mid for mid, _addr in victim.configuration if mid != victim.mymid]
    before = {mid: victim.liveness.detect.last_heard(mid) for mid in peers}
    assert any(before[mid] > 0.0 for mid in peers)

    counter.crash_cohort(1)
    # Back up well inside one suspect window: the beats are still recent.
    rt.run_for(rt.config.suspect_timeout() / 4.0)
    counter.recover_cohort(1)

    kept = [mid for mid in peers if before[mid] > 0.0]
    for mid in kept:
        assert victim.liveness.detect.last_heard(mid) == before[mid]


def test_recovered_cohort_suspects_a_dead_peer_promptly():
    """The point of aging: a recovered cohort must not treat a peer it
    heard only before its downtime as currently alive."""
    rt, counter, _clients, driver = build_counter_system(seed=63)
    driver.call("clients", "bump", 1)
    rt.run_for(400)
    victim = counter.cohort(1)
    dead = counter.cohort(2)

    counter.crash_cohort(2)  # the peer dies first...
    rt.run_for(20)
    counter.crash_cohort(1)  # ...then the victim, for a long time
    rt.run_for(20 * rt.config.suspect_timeout())
    counter.recover_cohort(1)
    # Immediately after recovery the dead peer's pre-crash beats are gone,
    # so nothing claims it was heard from recently.
    assert victim.liveness.detect.last_heard(dead.mymid) == 0.0
