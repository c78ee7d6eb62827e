"""The retry schedules of repro.detect (DESIGN.md D21): fixed mode is the
paper's constants and an attempt count, adaptive mode is Backoff's sequence
within the same total patience, and a restart grants that patience again."""

import pytest

from repro.config import CALL_PROBES, PREPARE_TIMEOUT, UNDERLING_TIMEOUT, ProtocolConfig
from repro.detect import AdaptiveTimeouts, Backoff, RttEstimator, ViewChangeWaits
from repro.detect.backoff import PROMOTION_JITTER, VIEW_RETRY_DELAY
from repro.sim.rng import SeededRng


class _NoDraws:
    """An RNG a fixed-mode schedule must never draw from."""

    def random(self):
        raise AssertionError("a fixed-mode schedule drew from its RNG")

    def fork(self, _name):
        return self


FIXED = ProtocolConfig(adaptive_timeouts=False, call_timeout=10.0)
ADAPTIVE = ProtocolConfig(call_timeout=50.0)


def _timeouts(config):
    return AdaptiveTimeouts(config, RttEstimator())


def _run(retry, now=0.0):
    """Wait, let the wait run out, repeat until patience is spent; the waits."""
    waits = []
    while True:
        waits.append(retry.wait(now))
        now += waits[-1]
        if retry.expired(now):
            return waits


# -- fixed mode ----------------------------------------------------------------


@pytest.mark.parametrize(
    "make, wait, count",
    [
        (lambda t: t.call_retry(_NoDraws()), 10.0, CALL_PROBES),
        (lambda t: t.prepare_retry(5), PREPARE_TIMEOUT, 5),
        (lambda t: t.request_retry(8, _NoDraws()), 2 * FIXED.call_timeout, 9),
    ],
    ids=["call", "prepare", "request"],
)
def test_fixed_mode_is_n_waits_of_the_constant_and_no_draw(make, wait, count):
    retry = make(_timeouts(FIXED))
    assert _run(retry) == [wait] * count
    assert retry.restart() is False  # nothing was backed off


def test_fixed_view_change_waits_are_the_papers_constants():
    waits = ViewChangeWaits(FIXED, _NoDraws(), "g/0")
    assert [waits.retry.wait(0.0) for _ in range(4)] == [VIEW_RETRY_DELAY] * 4
    assert not waits.retry.expired(1e9)  # a manager never gives up
    assert waits.promotion() == UNDERLING_TIMEOUT
    assert waits.invite_period(detect=None) is None
    assert waits.retry.restart() is False


def test_an_explicit_driver_wait_is_verbatim_in_adaptive_mode():
    retry = _timeouts(ADAPTIVE).request_retry(2, _NoDraws(), wait=77.0)
    assert _run(retry) == [77.0] * 3


# -- adaptive mode ---------------------------------------------------------------


def test_adaptive_call_waits_are_backoff_clamped_to_the_same_patience():
    timeouts = _timeouts(ADAPTIVE)
    retry = timeouts.call_retry(SeededRng(7).fork("call-backoff/c"))
    reference = Backoff(ADAPTIVE.call_timeout, SeededRng(7).fork("call-backoff/c"))
    patience = ADAPTIVE.call_timeout * CALL_PROBES
    waits = _run(retry, now=3.0)
    expected, now = [], 3.0
    while now < 3.0 + patience - 1e-9:
        expected.append(max(min(reference.next(timeouts.call_timeout()), 3.0 + patience - now), 0.0))
        now += expected[-1]
    assert waits == expected
    assert len(waits) == CALL_PROBES  # the grown last wait is cut at the deadline
    assert sum(waits) == pytest.approx(patience)  # the last wait ends on the deadline


def test_adaptive_prepare_waits_are_the_live_wait_unclamped():
    config = ProtocolConfig(flush_interval=1.0)
    rtt = RttEstimator()
    rtt.observe(4.0)  # rto 12: the derived wait is 4 * 12 + 2 * flush_interval
    timeouts = AdaptiveTimeouts(config, rtt)
    waits = _run(timeouts.prepare_retry(2))
    assert waits == [timeouts.prepare_timeout()] * 3 == [50.0] * 3
    assert sum(waits) > 2 * PREPARE_TIMEOUT  # the last wait overshoots


def test_adaptive_request_waits_are_backoff_and_counted():
    rtt = RttEstimator()
    rtt.observe(10.0)  # rto 30: thrice that is under twice call_timeout
    retry = AdaptiveTimeouts(ADAPTIVE, rtt).request_retry(3, SeededRng(9).fork("d"))
    reference = Backoff(90.0, SeededRng(9).fork("d"))
    assert retry.base() == 3 * rtt.rto == 90.0
    assert _run(retry) == [reference.next(90.0) for _ in range(4)]


def test_adaptive_view_change_waits_draw_from_their_named_streams():
    root = SeededRng(5)
    waits = ViewChangeWaits(ADAPTIVE, root, "g/1")
    backoff = Backoff(VIEW_RETRY_DELAY, SeededRng(5).fork("vc-backoff/g/1"))
    assert [waits.retry.wait(0.0) for _ in range(5)] == [backoff.next() for _ in range(5)]
    stretch = SeededRng(5).fork("vc-await/g/1")
    expected = UNDERLING_TIMEOUT * (1.0 + PROMOTION_JITTER * stretch.random())
    assert waits.promotion() == expected
    assert waits.retry.restart() is True and waits.retry.restart() is False


# -- restart ----------------------------------------------------------------------


def test_a_restart_grants_the_full_patience_again():
    fixed = _timeouts(FIXED).call_retry(_NoDraws())
    fixed.wait(0.0)
    assert not fixed.expired(10.0)
    fixed.wait(10.0)
    fixed.restart()
    assert _run(fixed, now=20.0) == [10.0] * CALL_PROBES

    timeouts = _timeouts(ADAPTIVE)
    adaptive = timeouts.call_retry(SeededRng(3).fork("r"))
    first = adaptive.wait(0.0)
    assert adaptive.restart() is True
    again = _run(adaptive, now=500.0)  # a new deadline from the first wait after it
    assert sum(again) == pytest.approx(ADAPTIVE.call_timeout * CALL_PROBES)
    reference = Backoff(ADAPTIVE.call_timeout, SeededRng(3).fork("r"))
    assert first == reference.next()
    reference.reset()
    assert again[0] == reference.next()  # back to the base delay
