"""Counter correctness for the instrumented kernel and message plane."""

import dataclasses

from repro.net.link import LinkModel
from repro.net.messages import Message
from repro.net.network import Network
from repro.sim.kernel import Simulator
from repro.sim.node import Actor, Node


def test_timer_counters_on_scripted_scenario():
    sim = Simulator()
    timers = [sim.schedule(float(i + 1), lambda: None) for i in range(5)]
    timers[1].cancel()
    timers[3].cancel()
    sim.run()
    assert sim.timers_created == 5
    assert sim.timers_cancelled == 2
    assert sim.events_processed == 3


def test_fired_timers_do_not_count_as_cancelled():
    sim = Simulator()
    timer = sim.schedule(1.0, lambda: None)
    sim.run()
    assert not timer.active
    timer.cancel()  # cancelling after the fact stays a no-op
    assert sim.timers_cancelled == 0
    assert sim.events_processed == 1


def test_double_cancel_counts_once():
    sim = Simulator()
    timer = sim.schedule(1.0, lambda: None)
    timer.cancel()
    timer.cancel()
    assert sim.timers_cancelled == 1


def test_peak_heap_size_tracks_high_water_mark():
    sim = Simulator()
    for i in range(7):
        sim.schedule(float(i + 1), lambda: None)
    assert sim.peak_heap_size == 7
    sim.run()
    assert sim.peak_heap_size == 7  # draining does not lower the mark


def test_compaction_triggers_and_preserves_order():
    sim = Simulator(compact_threshold=4)
    fired = []
    keep = [sim.schedule(10.0 + i, fired.append, i) for i in range(3)]
    doomed = [sim.schedule(5.0, lambda: None) for _ in range(8)]
    for timer in doomed:
        timer.cancel()
    assert sim.heap_compactions >= 1
    sim.run()
    assert fired == [0, 1, 2]
    assert sim.events_processed == len(keep)


def test_compaction_disabled_with_zero_threshold():
    sim = Simulator(compact_threshold=0)
    for _ in range(50):
        sim.schedule(1.0, lambda: None).cancel()
    assert sim.heap_compactions == 0
    assert sim.timers_cancelled == 50
    sim.run()
    assert sim.events_processed == 0


def test_perf_counters_dict_shape():
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    sim.run()
    counters = sim.perf_counters()
    assert counters["events_processed"] == 1
    assert counters["timers_created"] == 1
    assert counters["pending"] == 0
    assert counters["wall_seconds"] >= 0.0
    assert counters["gc_collections"] == [0, 0, 0]
    assert counters["gc_unreachable"] == 0


def test_gc_counters_are_deltas_since_construction():
    import gc

    gc.collect()
    sim = Simulator()
    loop = []
    loop.append(loop)
    del loop
    assert gc.collect() >= 1
    counters = sim.perf_counters()
    assert counters["gc_collections"][2] == 1
    assert counters["gc_unreachable"] >= 1
    assert Simulator().perf_counters()["gc_unreachable"] == 0


@dataclasses.dataclass
class _Ping(Message):
    payload: str = "ping"


class _Sink(Actor):
    def __init__(self, node, address, network):
        super().__init__(node, address)
        self.received = []
        network.register(self)

    def handle_message(self, message, source):
        self.received.append((message, source))


def _build(link=LinkModel(base_delay=1.0, jitter=0.0), seed=0):
    sim = Simulator(seed=seed)
    net = Network(sim, link=link)
    nodes = [Node(sim, f"n{i}") for i in range(2)]
    actors = [_Sink(nodes[i], f"a{i}", net) for i in range(2)]
    return sim, net, nodes, actors


def test_network_totals_count_sends_and_deliveries():
    sim, net, _nodes, actors = _build()
    for _ in range(4):
        net.send("a0", "a1", _Ping())
    sim.run()
    assert net.messages_sent_total == 4
    assert net.messages_delivered_total == 4
    assert net.messages_dropped_total == 0
    assert len(actors[1].received) == 4


def test_network_totals_count_drops():
    sim, net, nodes, _actors = _build()
    nodes[1].crash()
    net.send("a0", "a1", _Ping())
    sim.run()
    assert net.messages_sent_total == 1
    assert net.messages_dropped_total == 1
    assert net.messages_delivered_total == 0


def test_network_totals_match_metrics_breakdown():
    sim, net, _nodes, _actors = _build(
        link=LinkModel(base_delay=1.0, jitter=0.5, loss_probability=0.3,
                       duplicate_probability=0.2),
        seed=7,
    )
    for _ in range(200):
        net.send("a0", "a1", _Ping())
    sim.run()
    assert net.messages_sent_total == sum(net.metrics.messages_sent.values())
    assert net.messages_delivered_total == sum(
        net.metrics.messages_delivered.values()
    )
    assert net.messages_dropped_total == sum(
        net.metrics.messages_dropped.values()
    )
    assert net.messages_duplicated_total == sum(
        net.metrics.messages_duplicated.values()
    )
