"""Relayed (gossip) heartbeat evidence and the failure detector.

The repro.scale gossip plane forwards ``(mid, heard_at)`` liveness
evidence through intermediaries.  These tests pin the contract of
:meth:`repro.detect.FailureDetector.heard_relayed`:

- relayed evidence must NEVER feed the RTT estimator -- a
  Jacobson/Karels sample inflated by unknown relay hops would corrupt
  every RTO-derived timeout;
- ``last_heard`` advances monotonically in *origin* time (stale or
  duplicate evidence is a no-op);
- the inter-arrival EWMA is fed origin-time deltas, so the accrual
  baseline tracks the cadence of fresh evidence rather than the rare
  direct beats (~n/fanout periods apart under gossip);
- suspicion clears on fresh evidence, exactly as it does for a direct
  beat.

The end-to-end case runs a gossip-armed group on a LOSSY link and
crashes the primary: detection must stay prompt (bounded failover)
even though most liveness evidence arrives second-hand.
"""

from repro.config import IM_ALIVE_INTERVAL, ProtocolConfig, ScaleConfig
from repro.detect import FailureDetector


class _Clock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def _detector(config=None, transitions=None):
    config = config or ProtocolConfig()
    clock = _Clock()
    on_transition = None
    if transitions is not None:
        on_transition = lambda mid, s: transitions.append((mid, s))  # noqa: E731
    return (
        FailureDetector(config, peers=[1, 2], clock=clock,
                        on_transition=on_transition),
        clock,
    )


# -- the RTT invariant (the reason heard_relayed exists) --------------------


def test_relayed_evidence_never_feeds_rtt():
    """Gossip-forwarded sent_at must not become a Jacobson/Karels sample."""
    detector, clock = _detector()
    # A cascade of relayed evidence, each hops behind the origin time.
    for beat in range(1, 20):
        clock.now = beat * 10.0
        detector.heard_relayed(1, clock.now - 25.0)
    assert detector.rto(1) is None
    assert detector.group_rto() is None


def test_direct_beats_still_feed_rtt_alongside_relays():
    detector, clock = _detector()
    clock.now = 10.0
    detector.heard(1, sent_at=8.0)  # exact one-way delay: RTT sample 4.0
    clock.now = 20.0
    detector.heard_relayed(1, 18.0)
    clock.now = 30.0
    detector.heard_relayed(1, 28.0)
    # The single direct sample survives un-polluted: srtt stays 4.0.
    assert detector.rto(1) == 4.0 + 4.0 * 2.0


# -- origin-time monotonicity ----------------------------------------------


def test_stale_relayed_evidence_is_a_noop():
    detector, clock = _detector()
    clock.now = 50.0
    detector.heard(1)
    assert detector.last_heard(1) == 50.0
    # Evidence older than (or equal to) what we already know: ignored.
    detector.heard_relayed(1, 40.0)
    detector.heard_relayed(1, 50.0)
    assert detector.last_heard(1) == 50.0
    assert detector.expected_interval(1) == IM_ALIVE_INTERVAL


def test_relayed_evidence_advances_last_heard_in_origin_time():
    detector, clock = _detector()
    clock.now = 100.0
    detector.heard_relayed(1, 60.0)
    # Origin time, not arrival time: the peer was alive at 60, and the
    # 40 units of relay lag must count as elapsed silence.
    assert detector.last_heard(1) == 60.0


def test_relayed_evidence_unknown_peer_is_ignored():
    detector, clock = _detector()
    clock.now = 10.0
    detector.heard_relayed(99, 5.0)  # not a peer; must not raise
    assert detector.last_heard(99) == 0.0


# -- the interval EWMA learns the evidence cadence -------------------------


def test_interval_ewma_learns_origin_deltas_not_arrival_spacing():
    """Under gossip, direct beats are ~n/fanout periods apart; feeding
    arrival spacing would learn a baseline so lazy the primary's death
    would go unsuspected for an eternity.  Origin-time deltas keep the
    expected interval at the true heartbeat period."""
    config = ProtocolConfig()
    period = IM_ALIVE_INTERVAL
    detector, clock = _detector(config=config)
    clock.now = period
    detector.heard(1)
    # Fresh relayed evidence every period, arriving one period late.
    for beat in range(2, 40):
        clock.now = beat * period + 3.0
        detector.heard_relayed(1, beat * period)
    # The learned baseline is the evidence cadence (one period), so the
    # accrual threshold stays at its floor -- not 30x lazier.
    assert detector.expected_interval(1) <= 2.0 * period
    # And suspicion fires promptly once evidence stops.
    clock.now += config.suspect_multiplier * 2.0 * period + 1.0
    assert detector.is_suspect(1)


def test_relayed_evidence_clears_suspicion():
    transitions = []
    detector, clock = _detector(transitions=transitions)
    clock.now = 10.0
    detector.heard(1)
    clock.now = 10.0 + 100.0 * IM_ALIVE_INTERVAL
    assert detector.is_suspect(1)
    assert transitions == [(1, True)]
    detector.heard_relayed(1, clock.now - 2.0)
    assert not detector.is_suspect(1)
    assert transitions == [(1, True), (1, False)]


def test_relayed_then_direct_interval_continuity():
    """A direct beat after a run of relayed evidence measures its interval
    from the relayed last_heard, so the EWMA never sees the huge gap back
    to the previous *direct* beat."""
    period = IM_ALIVE_INTERVAL
    detector, clock = _detector()
    clock.now = period
    detector.heard(1)
    for beat in range(2, 10):
        clock.now = beat * period
        detector.heard_relayed(1, clock.now - 1.0)
    clock.now = 10.0 * period
    detector.heard(1)
    # Interval samples were all ~one period; nothing near the 9-period
    # direct-to-direct gap leaked in.
    assert detector.expected_interval(1) <= 2.0 * period


# -- end to end: gossip liveness on a lossy network ------------------------


def test_gossip_detection_stays_prompt_on_lossy_network():
    """Gossip-armed group, LOSSY links, primary crash: the backups learn
    of the death from (mostly) relayed evidence and must still form a
    new view promptly.  This is the end-to-end guard that relay hops
    neither corrupt RTT-derived timeouts nor lazify the accrual
    baseline."""
    from repro import LOSSY
    from repro.harness.common import build_kv_system

    config = ProtocolConfig(scale=ScaleConfig(gossip=True))
    rt, kv, _clients, driver, spec = build_kv_system(
        seed=2188, n_cohorts=9, config=config, link=LOSSY
    )
    interval = IM_ALIVE_INTERVAL
    rt.run_for(30.0 * interval)
    assert kv.active_primary() is not None
    kv.crash_primary()
    crashed_at = rt.sim.now
    deadline = crashed_at + 200.0 * interval
    while kv.active_primary() is None and rt.sim.now < deadline:
        rt.run_for(interval)
    assert kv.active_primary() is not None, "no view formed after crash"
    failover = rt.sim.now - crashed_at
    # Bounded: gossip trades some detection latency for load, but a lazy
    # EWMA would push this into the thousands.
    assert failover <= 60.0 * interval, f"failover took {failover}"
    rt.quiesce()
    rt.check_invariants(require_convergence=False)
