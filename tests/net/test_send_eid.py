"""A message carries its cause on the envelope (``Envelope.send_eid``).

A send records no trace event.  The tracer marks the envelope with the
newest event of the sender's handler frame (else the frame's own cause,
else ``0``), and the delivery makes that mark the receiver's causal
context, so what the receiver emits has a cross-node parent whose ``at``
difference is the hop's latency (DESIGN.md D22).  ``None`` means never
sent, which ``phantom_delivery`` refuses before the handler runs.  There is
no ``msg_id -> send`` side table to bound or to forget a slow message.
These tests pin what that must guarantee."""

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


def send_caused(tracer, net):
    """Send one ``Ping`` from a0 to a1 in a frame whose cause is a fresh
    ``record_added`` at n0; return that event's eid."""
    cause = tracer.emit("record_added", node="n0")
    tracer.push(cause)
    try:
        net.send("a0", "a1", Ping())
    finally:
        tracer.pop()
    return cause


def hear(tracer, actor):
    """Make *actor*'s handler emit one event per message; return their eids."""
    heard = []
    actor.handle_message = lambda _message, _source: heard.append(
        tracer.emit("record_added", node=actor.node.node_id)
    )
    return heard


def test_a_send_records_nothing_and_marks_its_cause():
    sim, net, _nodes, _actors, tracer = traced()
    envelope = Envelope(1, "a0", "a1", Ping(), 0.0)
    tracer.on_send(envelope)
    assert envelope.send_eid == 0  # outside any frame: no cause
    fire = tracer.emit("timer_fire", node="n0")
    tracer.push(fire)
    tracer.on_send(envelope)
    assert envelope.send_eid == fire  # nothing emitted in the frame yet
    added = tracer.emit("record_added", node="n0")
    tracer.on_send(envelope)
    assert envelope.send_eid == added  # the frame's newest event
    tracer.push(fire)
    tracer.on_send(envelope)
    assert envelope.send_eid == fire  # a nested frame counts its own events
    tracer.pop()
    tracer.pop()
    net.send("a0", "a1", Ping())
    sim.run()
    assert tracer.events_emitted == 2  # neither the send nor the delivery


def test_a_delivery_records_nothing_and_parents_what_the_receiver_emits():
    sim, net, _nodes, actors, tracer = traced()
    heard = hear(tracer, actors[1])
    cause = send_caused(tracer, net)
    net.send("a0", "a1", Ping())  # outside any frame: no cause
    sim.run()
    sent = tracer.get(cause)
    first, second = (tracer.get(eid) for eid in heard)
    assert (first.parents, second.parents) == ((cause,), ())
    assert (sent.node, first.node) == ("n0", "n1")
    assert first.at - sent.at == 1.0  # the hop's latency
    assert first.lamport == sent.lamport + 1
    assert tracer.events_emitted == 3 and tracer.current() is None


def test_recycled_envelope_does_not_inherit_a_send_eid():
    sim, net, _nodes, actors, tracer = traced()
    cause = send_caused(tracer, net)
    sim.run()
    assert len(actors[1].received) == 1
    (pooled,) = net._envelope_pool
    assert pooled.send_eid == cause  # stale
    net.tracer = None
    net.send("a1", "a0", Ping())  # untraced: nothing marks the recycled one
    assert not net._envelope_pool and pooled.send_eid is None
    assert Envelope(1, "a0", "a1", Ping(), 0.0).send_eid is None  # fresh one too
    # delivered with the tracer back, it is a phantom: no stale mark vouches
    net.tracer = tracer
    tracer.install_monitors(build_monitors(("phantom_delivery",)))
    with pytest.raises(InvariantViolation, match="never sent"):
        sim.run()
    assert actors[0].received == []


def test_untraced_network_leaves_send_eid_unset():
    sim, net, _nodes, actors = build()
    net.send("a0", "a1", Ping())
    sim.run()
    assert len(actors[1].received) == 1
    assert net._envelope_pool[0].send_eid is None


def test_each_message_parents_its_own_send():
    sim, net, _nodes, actors, tracer = traced(link=LinkModel(1.0, jitter=3.0), seed=4)
    heard = hear(tracer, actors[1])
    causes = []
    for _ in range(30):
        causes.append(send_caused(tracer, net))  # 30 sends through a 1-deep freelist
        sim.run()
    assert [tracer.get(eid).parents for eid in heard] == [(cause,) for cause in causes]


def test_both_copies_of_a_duplicated_datagram_parent_the_same_send():
    link = LinkModel(base_delay=1.0, jitter=0.5, duplicate_probability=0.999)
    sim, net, nodes, actors, tracer = traced(link=link, seed=3)
    cause = send_caused(tracer, net)
    assert net.messages_duplicated_total == 1
    nodes[1].crash()  # both copies arrive at a dead destination
    sim.run()
    drops = by_kind(tracer, "msg_drop")
    assert [drop.data["reason"] for drop in drops] == ["destination_down"] * 2
    assert [drop.parents for drop in drops] == [(cause,)] * 2
    # and when the destination is up: the one delivery carries the cause to
    # the receiver, the other copy is suppressed without an event
    nodes[1].recover()
    heard = hear(tracer, actors[1])
    second = send_caused(tracer, net)
    sim.run()
    assert [tracer.get(eid).parents for eid in heard] == [(second,)]
    assert net.messages_deduped_total == 1


def _drop_source_crashed(net, nodes, send):
    nodes[0].crash()
    send()


def _drop_partitioned_at_send(net, nodes, send):
    net.partition([{"n0"}, {"n1"}])
    send()


def _drop_link_loss(net, nodes, send):
    net.set_link_model("a0", "a1", LinkModel(loss_probability=0.999))
    send()


def _drop_destination_down(net, nodes, send):
    send()
    nodes[1].crash()


def _drop_partitioned_in_flight(net, nodes, send):
    send()
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
    causes = []
    scenario(net, nodes, lambda: causes.append(send_caused(tracer, net)))
    sim.run()
    assert actors[1].received == []
    (drop,) = by_kind(tracer, "msg_drop")
    assert drop.data["reason"] == reason
    # the message's cause, in the sender's frame or at the delivery
    assert drop.parents == tuple(causes)


def test_envelope_that_never_went_through_send_trips_phantom_delivery():
    sim, net, _nodes, actors, tracer = traced(monitors=("phantom_delivery",))
    forged = Envelope(
        msg_id=999, source="a0", destination="a1", payload=Ping(), sent_at=0.0
    )
    with pytest.raises(InvariantViolation) as caught:
        net._deliver(forged)
    violation = caught.value
    assert violation.monitor == "phantom_delivery"
    assert violation.event.data == {"msg_id": 999, "src": "a0", "dst": "a1", "type": "Ping"}
    assert violation.causal_slice == []  # nothing caused a message nobody sent
    assert actors[1].received == []  # caught before the actor saw it
    assert tracer.current() is None and tracer.events_emitted == 0
