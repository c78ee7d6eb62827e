"""Tests for link models: their validation, and what the network draws from them."""

import pytest

from repro.net.link import LAN, LOSSY, WAN, LinkModel

from tests.net.test_network import Ping, build


def test_defaults():
    assert LAN.loss_probability == 0.0
    assert LOSSY.loss_probability > 0.0


def test_wan_preset():
    # Partition-free but slow and jittery: loss/dup without split brain.
    assert WAN.base_delay > LAN.base_delay
    assert WAN.jitter > LOSSY.jitter
    assert 0.0 < WAN.loss_probability < 1.0
    assert 0.0 < WAN.duplicate_probability < 1.0


def test_validation():
    with pytest.raises(ValueError):
        LinkModel(base_delay=-1.0)
    with pytest.raises(ValueError):
        LinkModel(jitter=-0.1)
    with pytest.raises(ValueError):
        LinkModel(loss_probability=1.0)
    with pytest.raises(ValueError):
        LinkModel(loss_probability=-0.1)
    with pytest.raises(ValueError):
        LinkModel(duplicate_probability=1.1)
    # Both probabilities share the same half-open [0, 1) bound: a link
    # that duplicates every message forever would never quiesce.
    with pytest.raises(ValueError):
        LinkModel(duplicate_probability=1.0)
    with pytest.raises(ValueError):
        LinkModel(duplicate_probability=-0.1)


def _flight_times(model, seed, n):
    """Send *n* datagrams over *model*; the network's counters and the
    delivery time of each (a duplicate's second copy is suppressed)."""
    sim, net, _nodes, actors = build(link=model, seed=seed)
    for _ in range(n):
        net.send("a0", "a1", Ping())
    sim.run()
    return net, [at for _message, _source, at in actors[1].received]


def test_delay_within_bounds():
    _net, delays = _flight_times(LinkModel(base_delay=2.0, jitter=0.5), 1, 200)
    assert len(delays) == 200
    assert all(2.0 <= delay <= 2.5 for delay in delays)
    assert len(set(delays)) > 100  # each datagram draws its own jitter


def test_zero_jitter_constant_delay():
    _net, delays = _flight_times(LinkModel(base_delay=3.0, jitter=0.0), 2, 10)
    assert delays == [3.0] * 10


def test_drop_rate_roughly_matches():
    net, delays = _flight_times(LinkModel(loss_probability=0.25), 3, 4000)
    assert net.messages_dropped_total == 4000 - len(delays)
    assert abs(net.messages_dropped_total / 4000 - 0.25) < 0.05


def test_duplicates_rate():
    net, delays = _flight_times(LinkModel(duplicate_probability=0.5), 4, 2000)
    assert len(delays) == 2000
    assert net.messages_deduped_total == net.messages_duplicated_total
    assert abs(net.messages_duplicated_total / 2000 - 0.5) < 0.06
