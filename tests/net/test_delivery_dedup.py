"""Network-duplicate suppression by the ``delivered`` flag on the envelope.

Both copies of a duplicated datagram are one ``Envelope``; the first copy
that reaches its destination sets ``delivered`` and the other is counted
and dropped (paper section 3.1).  There is no set of delivered ids to
prune.  The counts at the bottom were produced by the parent commit, whose
network kept that set, on the same sends.
"""

import collections

from repro.net.link import LOSSY, LinkModel

from tests.net.test_network import Ping, build
from tests.net.test_send_eid import by_kind, traced

#: duplicates (nearly) every datagram; the copies land 1.0-1.5 apart at most
ALWAYS_TWICE = LinkModel(base_delay=1.0, jitter=0.5, duplicate_probability=0.999)


def _drop_reasons(tracer):
    """``(reason, address that saw the drop) -> count`` over the trace."""
    return collections.Counter(
        (event.data["reason"], event.node) for event in by_kind(tracer, "msg_drop")
    )


def _send_one_duplicated(seed=3):
    sim, net, nodes, actors = build(link=ALWAYS_TWICE, seed=seed)
    net.send("a0", "a1", Ping())
    assert net.messages_duplicated_total == 1 and net.in_flight_estimate() == 2
    return sim, net, nodes, actors


def test_both_copies_arriving_deliver_once():
    sim, net, _nodes, actors = _send_one_duplicated()
    sim.run()
    assert len(actors[1].received) == 1
    assert net.messages_delivered_total == net.messages_deduped_total == 1
    assert net.messages_dropped_total == 0 and net.in_flight_estimate() == 0


def test_first_copy_lost_to_a_partition_lets_the_second_through():
    sim, net, _nodes, actors = _send_one_duplicated()
    net.partition([["n0"], ["n1"]])
    sim.step()  # the first copy meets the partition
    assert net.messages_dropped_total == 1 and actors[1].received == []
    net.heal()
    sim.run()
    assert len(actors[1].received) == 1
    assert net.messages_deduped_total == 0 and net.in_flight_estimate() == 0


def test_first_copy_lost_to_a_crash_lets_the_second_through():
    sim, net, nodes, actors = _send_one_duplicated()
    nodes[1].crash()
    sim.step()
    nodes[1].recover()
    sim.run()
    assert len(actors[1].received) == 1
    assert (net.messages_dropped_total, net.messages_deduped_total) == (1, 0)


def test_receiver_crashing_and_recovering_between_the_copies_still_dedups():
    # The connection state is the delivery system's, not the node's.
    sim, net, nodes, actors = _send_one_duplicated()
    sim.step()
    assert len(actors[1].received) == 1
    nodes[1].crash()
    nodes[1].recover()
    sim.run()
    assert len(actors[1].received) == 1
    assert (net.messages_dropped_total, net.messages_deduped_total) == (0, 1)


def test_envelope_is_recycled_only_after_both_copies_and_without_the_flag():
    sim, net, _nodes, actors = _send_one_duplicated()
    sim.step()
    assert net._envelope_pool == []  # the second copy is still scheduled
    sim.run()
    (pooled,) = net._envelope_pool
    assert pooled.delivered and pooled.copies == 0 and pooled.payload is None
    net.link = LinkModel(base_delay=1.0, jitter=0.0)
    net.send("a0", "a1", Ping())
    assert net._envelope_pool == [] and not pooled.delivered and pooled.copies == 1
    sim.run()
    assert len(actors[1].received) == 2  # not mistaken for a duplicate
    assert net.messages_deduped_total == 1


def test_unregistered_addresses_drop_at_send_as_partitioned():
    sim, net, _nodes, actors, tracer = traced()
    net.send("a0", "nobody", Ping())
    net.send("nobody", "a1", Ping())
    sim.run()
    assert _drop_reasons(tracer) == {
        ("partitioned_at_send", "a0"): 1,
        ("partitioned_at_send", "nobody"): 1,
    }
    assert net.messages_dropped_total == 2 and net.in_flight_estimate() == 0
    assert actors[1].received == []


def test_partition_installed_mid_flight_drops_at_delivery():
    sim, net, _nodes, actors, tracer = traced()
    net.send("a0", "a1", Ping())
    net.fail_link_oneway("n0", "n1")
    net.send("a1", "a0", Ping())  # the other direction still works
    sim.run()
    assert _drop_reasons(tracer) == {("partitioned_in_flight", "a1"): 1}
    assert actors[1].received == [] and len(actors[0].received) == 1


def test_every_fault_kind_cuts_the_send_path_until_the_last_one_is_repaired():
    # send/_deliver ask can_communicate only while a fault stands; each kind
    # of fault has to switch that on, and repairing one of two must not
    # switch it off.
    sim, net, _nodes, actors = build()
    faults = [
        (lambda: net.partition([["n0"], ["n1"]]), net.heal),
        (lambda: net.fail_link("n1", "n0"), lambda: net.repair_link("n0", "n1")),
        (
            lambda: net.fail_link_oneway("n0", "n1"),
            lambda: net.repair_link_oneway("n0", "n1"),
        ),
    ]

    def reaches():
        before = len(actors[1].received)
        net.send("a0", "a1", Ping())
        sim.run()
        return len(actors[1].received) == before + 1

    for inject, repair in faults:
        assert reaches()
        inject()
        assert not reaches() and net.disrupted()
        repair()
        assert reaches() and not net.disrupted()
    net.fail_link("n0", "n1")
    net.fail_link_oneway("n0", "n1")
    net.repair_link("n0", "n1")
    assert not reaches()
    net.repair_link_oneway("n0", "n1")
    assert reaches()


def test_lossy_run_counts_what_the_parent_counted():
    sim, net, nodes, actors = build(link=LOSSY, seed=11, n=3)
    for index in range(3000):
        net.send(f"a{index % 3}", f"a{(index + 1 + index % 2) % 3}", Ping())
        if index % 7 == 0:
            sim.run(until=sim.now + 0.3)
        if index == 1500:
            nodes[1].crash()
            assert (net.in_flight_estimate(), net.messages_deduped_total) == (32, 30)
        if index == 1600:
            nodes[1].recover()
        if index == 2000:
            net.partition([["n0"], ["n1", "n2"]])
        if index == 2300:
            net.heal()
    sim.run()
    assert net.messages_sent_total == 3000
    assert net.messages_delivered_total == 2580
    assert net.messages_dropped_total == 421
    assert net.messages_duplicated_total == 57
    assert net.messages_deduped_total == 56
    assert net.in_flight_estimate() == 0
    assert [len(actor.received) for actor in actors] == [832, 860, 888]
    assert sim.now == 130.40680956673535


def test_lossy_run_drops_for_the_parents_reasons():
    sim, net, nodes, _actors, tracer = traced(link=LOSSY, seed=5, n=3)
    for index in range(1200):
        net.send(f"a{index % 3}", f"a{(index + 1) % 3}", Ping())
        if index % 5 == 0:
            sim.run(until=sim.now + 0.4)
        if index == 300:
            net.partition([["n0"], ["n1", "n2"]])
        if index == 500:
            net.heal()
            net.fail_link_oneway("n1", "n2")
        if index == 700:
            net.heal()
            nodes[2].crash()
        if index == 900:
            nodes[2].recover()
    sim.run()
    assert net.messages_deduped_total == 23
    assert _drop_reasons(tracer) == {
        ("destination_down", "a2"): 59,
        ("link_loss", "a0"): 20,
        ("link_loss", "a1"): 16,
        ("link_loss", "a2"): 16,
        ("partitioned_at_send", "a0"): 66,
        ("partitioned_at_send", "a1"): 67,
        ("partitioned_at_send", "a2"): 67,
        ("partitioned_in_flight", "a0"): 5,
        ("partitioned_in_flight", "a1"): 6,
        ("partitioned_in_flight", "a2"): 6,
        ("source_crashed", "a2"): 67,
    }
