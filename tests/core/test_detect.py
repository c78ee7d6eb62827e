"""Unit tests for repro.detect: RTT estimation, backoff, suspicion."""

import pytest

from repro.config import (
    COMMIT_RETRY_INTERVAL,
    IM_ALIVE_INTERVAL,
    MIN_TIMEOUT,
    PREPARE_TIMEOUT,
    ProtocolConfig,
)
from repro.detect import AdaptiveTimeouts, Backoff, FailureDetector, RttEstimator
from repro.sim.rng import SeededRng


# -- RttEstimator -----------------------------------------------------------


def test_rtt_no_samples_reports_none():
    est = RttEstimator()
    assert est.rto is None
    assert est.samples == 0


def test_rtt_first_sample_initializes_srtt_and_var():
    est = RttEstimator()
    est.observe(8.0)
    assert est.srtt == 8.0
    assert est.rttvar == 4.0
    assert est.rto == 8.0 + 4.0 * 4.0


def test_rtt_converges_on_steady_samples():
    est = RttEstimator()
    for _ in range(200):
        est.observe(5.0)
    assert est.srtt == pytest.approx(5.0, rel=1e-6)
    assert est.rttvar == pytest.approx(0.0, abs=1e-6)
    assert est.rto == pytest.approx(5.0, rel=1e-3)


def test_rtt_variance_grows_with_jittery_samples():
    est = RttEstimator()
    for i in range(100):
        est.observe(5.0 if i % 2 == 0 else 15.0)
    assert est.rttvar > 2.0
    assert est.rto > est.srtt


def test_rtt_ignores_nonpositive_samples():
    est = RttEstimator()
    est.observe(0.0)
    est.observe(-3.0)
    assert est.rto is None


def test_rtt_reset_forgets_history():
    est = RttEstimator()
    est.observe(5.0)
    est.reset()
    assert est.rto is None
    assert est.samples == 0


# -- AdaptiveTimeouts -------------------------------------------------------


def test_adaptive_timeouts_fixed_before_first_sample():
    config = ProtocolConfig()
    timeouts = AdaptiveTimeouts(config, RttEstimator())
    assert timeouts.call_timeout() == config.call_timeout
    assert timeouts.prepare_timeout() == PREPARE_TIMEOUT
    assert timeouts.commit_retry_interval() == COMMIT_RETRY_INTERVAL


def test_adaptive_timeouts_disabled_always_fixed():
    config = ProtocolConfig(adaptive_timeouts=False)
    rtt = RttEstimator()
    rtt.observe(1.0)
    timeouts = AdaptiveTimeouts(config, rtt)
    assert timeouts.call_timeout() == config.call_timeout


def test_adaptive_timeouts_shrink_with_fast_rtt_but_respect_floor():
    config = ProtocolConfig()
    rtt = RttEstimator()
    for _ in range(50):
        rtt.observe(0.5)  # tiny RTT: derived timeout would be ~1.5
    timeouts = AdaptiveTimeouts(config, rtt)
    assert timeouts.call_timeout() == MIN_TIMEOUT


def test_adaptive_timeouts_never_exceed_fixed_ceiling():
    config = ProtocolConfig()
    rtt = RttEstimator()
    rtt.observe(1000.0)  # pathological RTT: derived value clamps to fixed
    timeouts = AdaptiveTimeouts(config, rtt)
    assert timeouts.call_timeout() == config.call_timeout
    assert timeouts.prepare_timeout() == PREPARE_TIMEOUT


def test_adaptive_timeouts_in_band_value():
    config = ProtocolConfig()
    rtt = RttEstimator()
    for _ in range(50):
        rtt.observe(4.0)
    timeouts = AdaptiveTimeouts(config, rtt)
    # 3 * rto with rto -> ~4: inside (min_timeout, call_timeout).
    assert MIN_TIMEOUT < timeouts.call_timeout() < config.call_timeout


# -- Backoff ----------------------------------------------------------------


def test_backoff_growth_and_cap_without_jitter():
    backoff = Backoff(10.0, SeededRng(1), multiplier=2.0, cap_factor=8.0,
                      jitter=0.0)
    assert [backoff.next() for _ in range(5)] == [10.0, 20.0, 40.0, 80.0, 80.0]


def test_backoff_same_seed_same_delays():
    a = Backoff(10.0, SeededRng(42))
    b = Backoff(10.0, SeededRng(42))
    assert [a.next() for _ in range(6)] == [b.next() for _ in range(6)]


def test_backoff_jitter_within_bounds():
    backoff = Backoff(10.0, SeededRng(7), multiplier=1.0, cap_factor=1.0,
                      jitter=0.5)
    for _ in range(100):
        delay = backoff.next()
        assert 7.5 <= delay <= 12.5


def test_backoff_reset_restarts_and_reports_pending():
    backoff = Backoff(10.0, SeededRng(3), jitter=0.0)
    assert backoff.reset() is False
    backoff.next()
    backoff.next()
    assert backoff.reset() is True
    assert backoff.next() == 10.0


def test_backoff_per_draw_base_override():
    backoff = Backoff(10.0, SeededRng(5), jitter=0.0)
    assert backoff.next(4.0) == 4.0
    assert backoff.next(4.0) == 8.0


def test_backoff_validation():
    rng = SeededRng(0)
    with pytest.raises(ValueError):
        Backoff(0.0, rng)
    with pytest.raises(ValueError):
        Backoff(1.0, rng, multiplier=0.5)
    with pytest.raises(ValueError):
        Backoff(1.0, rng, cap_factor=0.5)
    with pytest.raises(ValueError):
        Backoff(1.0, rng, jitter=2.0)


# -- FailureDetector --------------------------------------------------------


class _Clock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def _detector(config=None, clock=None, transitions=None):
    config = config or ProtocolConfig()
    clock = clock or _Clock()
    on_transition = None
    if transitions is not None:
        on_transition = lambda mid, s: transitions.append((mid, s))  # noqa: E731
    return (
        FailureDetector(config, peers=[1, 2], clock=clock,
                        on_transition=on_transition),
        clock,
    )


def test_fixed_mode_matches_paper_rule():
    config = ProtocolConfig(adaptive_timeouts=False)
    detector, clock = _detector(config=config)
    clock.now = 5.0
    detector.heard(1)
    clock.now = 5.0 + config.suspect_timeout()
    assert not detector.is_suspect(1)  # strict inequality, as before
    clock.now += 0.001
    assert detector.is_suspect(1)


def test_adaptive_suspicion_uses_learned_interval():
    config = ProtocolConfig()
    detector, clock = _detector(config=config)
    # Steady beats at exactly the configured period.
    for beat in range(1, 11):
        clock.now = beat * IM_ALIVE_INTERVAL
        detector.heard(1)
    assert detector.expected_interval(1) >= IM_ALIVE_INTERVAL
    # Just under the threshold: not suspect; just past it: suspect.
    threshold = config.suspect_multiplier * detector.expected_interval(1)
    clock.now = detector.last_heard(1) + threshold - 0.001
    assert not detector.is_suspect(1)
    clock.now = detector.last_heard(1) + threshold + 0.001
    assert detector.is_suspect(1)


def test_lossy_beats_stretch_expected_interval():
    detector, clock = _detector()
    # Every other beat lost: observed inter-arrival is twice the period.
    for beat in range(1, 11):
        clock.now = beat * 2 * IM_ALIVE_INTERVAL
        detector.heard(1)
    assert detector.expected_interval(1) >= 2 * IM_ALIVE_INTERVAL


def test_an_outage_is_not_a_cadence():
    """A silence past the suspicion threshold is not an inter-arrival
    sample: one long gap must not make the peer's next death look alive."""
    config = ProtocolConfig()
    detector, clock = _detector(config=config)
    for beat in range(1, 11):
        clock.now = beat * IM_ALIVE_INTERVAL
        detector.heard(1)
    learned = detector.expected_interval(1)
    clock.now += 10 * config.suspect_timeout()
    detector.heard(1)
    assert detector.expected_interval(1) == learned


def test_a_vouch_restarts_the_silence_and_is_no_sample():
    transitions = []
    config = ProtocolConfig()
    detector, clock = _detector(config=config, transitions=transitions)
    clock.now = 100.0
    assert detector.is_suspect(1)
    detector.vouch(1, clock.now)  # the primary's word ends the suspicion
    assert transitions == [(1, True), (1, False)]
    assert detector.last_heard(1) == 0.0 and detector.rto(1) is None
    clock.now += config.suspect_timeout()
    assert not detector.silent(1)
    clock.now += 0.001
    assert detector.silent(1) and transitions == [(1, True), (1, False)]
    # A beacon after the vouch samples the gap since the vouch, not since
    # the last beacon.
    detector.vouch(1, clock.now)
    clock.now += IM_ALIVE_INTERVAL
    detector.heard(1)
    assert detector.peers[1].mean_interval == IM_ALIVE_INTERVAL


def test_transitions_fire_once_per_crossing():
    transitions = []
    detector, clock = _detector(transitions=transitions)
    clock.now = 10.0
    detector.heard(1)
    clock.now = 1000.0
    assert detector.is_suspect(1)
    assert detector.is_suspect(1)  # still suspect: no second event
    detector.heard(1)  # trust restored
    assert transitions == [(1, True), (1, False)]


def test_heartbeat_sent_at_feeds_rtt():
    detector, clock = _detector()
    assert detector.group_rto() is None  # no sample yet
    clock.now = 12.0
    detector.heard(1, sent_at=10.0)  # one-way 2.0 -> RTT 4.0
    assert detector.rto(1) == pytest.approx(4.0 + 4.0 * 2.0)
    assert detector.group_rto() == detector.rto(1)
    assert detector.rto(2) is None


def test_unknown_peer_is_ignored():
    detector, clock = _detector()
    detector.heard(99)
    assert not detector.is_suspect(99)
    assert detector.suspicion(99) == 0.0
