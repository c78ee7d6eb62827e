"""The send's trace event rides on the envelope (``Envelope.send_eid``).

There is no ``msg_id -> send`` side table to bound or to forget a slow
message: a delivery or a drop reads its causal parent off the envelope it
is handed.  These tests pin what that must guarantee."""

import pytest

from repro.config import TraceConfig
from repro.net.link import LinkModel
from repro.net.messages import Envelope
from repro.trace import InvariantViolation, Tracer, build_monitors

from tests.net.test_network import Ping, build


def traced(link=LinkModel(base_delay=1.0, jitter=0.0), seed=0, monitors=(), n=2):
    sim, net, nodes, actors = build(link=link, seed=seed, n=n)
    tracer = Tracer(sim, TraceConfig(monitors=()))
    tracer.install_monitors(build_monitors(monitors))
    sim.tracer = net.tracer = tracer
    return sim, net, nodes, actors, tracer


def by_kind(tracer, kind):
    return [event for event in tracer.events() if event.kind == kind]


def test_recycled_envelope_does_not_inherit_a_send_eid():
    sim, net, _nodes, actors, tracer = traced()
    net.send("a0", "a1", Ping())
    sim.run()
    assert len(actors[1].received) == 1
    (pooled,) = net._envelope_pool
    assert pooled.send_eid == by_kind(tracer, "msg_send")[0].eid  # stale
    sim.tracer = net.tracer = None
    net.send("a1", "a0", Ping())  # untraced: nothing stamps the recycled one
    assert not net._envelope_pool and pooled.send_eid is None
    assert Envelope(1, "a0", "a1", Ping(), 0.0).send_eid is None  # fresh one too


def test_untraced_network_leaves_send_eid_unset():
    sim, net, _nodes, actors = build()
    net.send("a0", "a1", Ping())
    sim.run()
    assert len(actors[1].received) == 1
    assert net._envelope_pool[0].send_eid is None


def test_each_message_parents_its_own_send():
    sim, net, _nodes, actors, tracer = traced(link=LinkModel(1.0, jitter=3.0), seed=4)
    for _ in range(30):
        net.send("a0", "a1", Ping())  # 30 sends through a 1-deep freelist
        sim.run()
    sends = {e.data["msg_id"]: e.eid for e in by_kind(tracer, "msg_send")}
    delivers = by_kind(tracer, "msg_deliver")
    assert len(delivers) == len(sends) == 30
    for deliver in delivers:
        assert deliver.parents == (sends[deliver.data["msg_id"]],)
        assert deliver.data["sent"] is True


def test_both_copies_of_a_duplicated_datagram_parent_the_same_send():
    link = LinkModel(base_delay=1.0, jitter=0.5, duplicate_probability=0.999)
    sim, net, nodes, _actors, tracer = traced(link=link, seed=3)
    net.send("a0", "a1", Ping())
    assert net.messages_duplicated_total == 1
    nodes[1].crash()  # both copies arrive at a dead destination
    sim.run()
    (send,) = by_kind(tracer, "msg_send")
    drops = by_kind(tracer, "msg_drop")
    assert [drop.data["reason"] for drop in drops] == ["destination_down"] * 2
    assert [drop.parents for drop in drops] == [(send.eid,)] * 2
    # and when the destination is up: one delivery names the send, the
    # other copy is suppressed without an event
    nodes[1].recover()
    net.send("a0", "a1", Ping())
    sim.run()
    second_send = by_kind(tracer, "msg_send")[1]
    (deliver,) = by_kind(tracer, "msg_deliver")
    assert deliver.parents == (second_send.eid,)
    assert net.messages_deduped_total == 1


def _drop_source_crashed(net, nodes):
    nodes[0].crash()
    net.send("a0", "a1", Ping())


def _drop_partitioned_at_send(net, nodes):
    net.partition([{"n0"}, {"n1"}])
    net.send("a0", "a1", Ping())


def _drop_link_loss(net, nodes):
    net.set_link_model("a0", "a1", LinkModel(loss_probability=0.999))
    net.send("a0", "a1", Ping())


def _drop_destination_down(net, nodes):
    net.send("a0", "a1", Ping())
    nodes[1].crash()


def _drop_partitioned_in_flight(net, nodes):
    net.send("a0", "a1", Ping())
    net.partition([{"n0"}, {"n1"}])


@pytest.mark.parametrize(
    "reason, scenario",
    [
        ("source_crashed", _drop_source_crashed),
        ("partitioned_at_send", _drop_partitioned_at_send),
        ("link_loss", _drop_link_loss),
        ("destination_down", _drop_destination_down),
        ("partitioned_in_flight", _drop_partitioned_in_flight),
    ],
)
def test_every_drop_path_names_its_send(reason, scenario):
    sim, net, nodes, actors, tracer = traced(seed=1)
    scenario(net, nodes)
    sim.run()
    assert actors[1].received == []
    (send,) = by_kind(tracer, "msg_send")
    (drop,) = by_kind(tracer, "msg_drop")
    assert drop.data["reason"] == reason
    assert drop.data["msg_id"] == send.data["msg_id"]
    assert drop.parents == (send.eid,)


def test_envelope_that_never_went_through_send_trips_phantom_delivery():
    sim, net, _nodes, actors, tracer = traced(monitors=("phantom_delivery",))
    forged = Envelope(
        msg_id=999, source="a0", destination="a1", payload=Ping(), sent_at=0.0
    )
    with pytest.raises(InvariantViolation) as caught:
        net._deliver(forged)
    assert caught.value.monitor == "phantom_delivery"
    assert caught.value.event.data["sent"] is False
    assert caught.value.event.parents == ()
    assert actors[1].received == []  # caught before the actor saw it
    assert tracer.current() is None
