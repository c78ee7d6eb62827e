"""Tests for the communication buffer: add, force_to, acks, trimming."""

import pytest

from repro.core.buffer import CommunicationBuffer, ForceAbandoned
from repro.core.events import Aborted
from repro.core.messages import BufferAckMsg, BufferMsg
from repro.core.quorum import sub_majority
from repro.core.viewstamp import ViewId, Viewstamp
from repro.sim.kernel import Simulator
from repro.txn.ids import Aid

VID = ViewId(2, 0)
OLD_VID = ViewId(1, 0)


def record(n=0):
    return Aborted(aid=Aid("g", VID, n))


class Harness:
    """Captures sends and drives timers for one buffer under test."""

    def __init__(
        self,
        backups=(1, 2),
        config_size=3,
        force_timeout=50.0,
        max_batch=64,
        flush_delay=0.0,
        pipeline_depth=1,
        flush_interval=5.0,
        rto=lambda mid: None,
    ):
        self.sim = Simulator()
        self.sent = []  # (mid, message)
        self.force_failures = 0
        self.buffer = CommunicationBuffer(
            viewid=VID,
            backups=backups,
            configuration_size=config_size,
            send=lambda mid, message: self.sent.append((mid, message)),
            set_timer=lambda delay, fn, *a: self.sim.schedule(delay, fn, *a),
            on_force_failure=self._on_failure,
            force_timeout=force_timeout,
            max_batch=max_batch,
            flush_delay=flush_delay,
            pipeline_depth=pipeline_depth,
            flush_interval=flush_interval,
            clock=lambda: self.sim.now,
            rto=rto,
        )

    def records_to(self, mid):
        """Every record ts shipped to *mid*, in send order (with repeats)."""
        return [
            ts
            for sent_mid, message in self.sent
            if sent_mid == mid
            for ts, _record in message.records
        ]

    def _on_failure(self):
        self.force_failures += 1

    def ack(self, mid, ts):
        self.buffer.on_ack(BufferAckMsg(viewid=VID, acked_ts=ts, mid=mid))


def test_add_assigns_increasing_timestamps():
    h = Harness()
    assert h.buffer.add(record()) == Viewstamp(VID, 1)
    assert h.buffer.add(record()) == Viewstamp(VID, 2)
    assert h.buffer.timestamp == 2


def test_force_old_view_returns_immediately():
    """"If the viewstamp is not for the current view it returns immediately.""" ""
    h = Harness()
    force = h.buffer.force_to(Viewstamp(OLD_VID, 99))
    assert force.done and force.exception() is None


def test_force_none_returns_immediately():
    h = Harness()
    assert h.buffer.force_to(None).done


def test_force_waits_for_sub_majority():
    h = Harness()  # config 3 -> sub-majority 1
    vs = h.buffer.add(record())
    force = h.buffer.force_to(vs)
    assert not force.done
    h.ack(1, 1)
    assert force.done


def test_force_already_satisfied_is_immediate():
    h = Harness()
    vs = h.buffer.add(record())
    h.buffer.flush()
    h.ack(1, 1)
    assert h.buffer.force_to(vs).done


def test_force_five_cohort_group_needs_two_backups():
    h = Harness(backups=(1, 2, 3, 4), config_size=5)  # sub-majority 2
    vs = h.buffer.add(record())
    force = h.buffer.force_to(vs)
    h.ack(1, 1)
    assert not force.done
    h.ack(2, 1)
    assert force.done


def test_single_cohort_group_forces_trivially():
    h = Harness(backups=(), config_size=1)
    vs = h.buffer.add(record())
    assert h.buffer.force_to(vs).done


def test_force_triggers_immediate_flush():
    h = Harness()
    vs = h.buffer.add(record())
    assert h.sent == []
    h.buffer.force_to(vs)
    assert len(h.sent) == 1  # one BufferMsg, to the backup the force waits for
    assert all(isinstance(message, BufferMsg) for _mid, message in h.sent)
    h.buffer.flush()  # the sweep: the other backup's copy, and no second one
    assert h.records_to(1) == h.records_to(2) == [1]


@pytest.mark.parametrize("config_size", [3, 5, 7])
def test_a_force_ships_a_sub_majority_and_the_sweep_ships_the_rest(config_size):
    """Speedy delivery is owed to the backups a force waits for -- the ones a
    push would choose, the best acknowledged -- and to nobody else."""
    backups = tuple(range(1, config_size))
    needed = sub_majority(config_size)
    h = Harness(backups=backups, config_size=config_size)
    h.buffer.add(record(1))
    h.buffer.flush()
    for mid in backups[-needed:]:  # the last ones answer, the others lag
        h.ack(mid, 1)
    swept = len(h.sent)
    h.buffer.add(record(2))
    force = h.buffer.force_to(Viewstamp(VID, 2))
    assert [mid for mid, _m in h.sent[swept:]] == list(backups[-needed:])
    h.buffer.add(record(3))
    h.buffer.push()  # one selection: the push goes where the force went
    assert [mid for mid, _m in h.sent[swept + needed:]] == list(backups[-needed:])
    for mid in backups[-needed:]:
        h.ack(mid, 3)
    assert force.done
    h.buffer.flush()
    for mid in backups:  # everybody has every record, in one copy
        assert h.records_to(mid) == [1, 2, 3]


def test_a_force_ships_every_backup_when_it_waits_for_every_backup():
    """Two storage backups left of a configuration of five (the others are
    witnesses, or outside the view): the sub-majority is all of them."""
    h = Harness(backups=(1, 2), config_size=5)
    h.buffer.add(record(1))
    force = h.buffer.force_to(Viewstamp(VID, 1))
    assert sorted(mid for mid, _m in h.sent) == [1, 2]
    h.ack(1, 1)
    assert not force.done
    h.ack(2, 1)
    assert force.done


def test_flush_sends_only_unacked_suffix():
    h = Harness()
    h.buffer.add(record(1))
    h.buffer.add(record(2))
    h.ack(1, 1)
    h.sent.clear()
    h.buffer.flush()
    for mid, message in h.sent:
        if mid == 1:
            assert [ts for ts, _r in message.records] == [2]
        else:
            assert [ts for ts, _r in message.records] == [1, 2]


def test_flush_skips_fully_acked_backup():
    h = Harness()
    h.buffer.add(record())
    h.ack(1, 1)
    h.sent.clear()
    h.buffer.flush()
    assert {mid for mid, _m in h.sent} == {2}


def test_force_timeout_fails_and_signals():
    h = Harness(force_timeout=10.0)
    vs = h.buffer.add(record())
    force = h.buffer.force_to(vs)
    h.sim.run()
    assert h.force_failures == 1
    assert isinstance(force.exception(), ForceAbandoned)


def test_ack_cancels_force_timeout():
    h = Harness(force_timeout=10.0)
    vs = h.buffer.add(record())
    force = h.buffer.force_to(vs)
    h.ack(1, 1)
    h.sim.run()
    assert h.force_failures == 0
    assert force.done and force.exception() is None


def test_stale_ack_ignored():
    h = Harness()
    h.buffer.add(record())
    h.buffer.on_ack(BufferAckMsg(viewid=OLD_VID, acked_ts=1, mid=1))
    assert h.buffer.acked[1] == 0


def test_ack_from_stranger_ignored():
    h = Harness()
    h.buffer.add(record())
    h.buffer.on_ack(BufferAckMsg(viewid=VID, acked_ts=1, mid=99))
    assert 99 not in h.buffer.acked


def test_ack_regression_ignored():
    h = Harness()
    h.buffer.add(record(1))
    h.buffer.add(record(2))
    h.ack(1, 2)
    h.ack(1, 1)
    assert h.buffer.acked[1] == 2


def test_close_fails_pending_forces():
    h = Harness()
    vs = h.buffer.add(record())
    force = h.buffer.force_to(vs)
    h.buffer.close()
    assert isinstance(force.exception(), ForceAbandoned)


def test_closed_buffer_rejects_add_and_force():
    h = Harness()
    h.buffer.close()
    with pytest.raises(Exception):
        h.buffer.add(record())
    assert isinstance(h.buffer.force_to(Viewstamp(VID, 0)).exception(), ForceAbandoned)


def test_trim_drops_universally_acked_records():
    h = Harness()
    for n in range(5):
        h.buffer.add(record(n))
    h.ack(1, 3)
    h.ack(2, 3)
    assert h.buffer._base_ts == 3
    assert [ts for ts, _r in h.buffer._records] == [4, 5]
    # A later flush still reaches both backups with the suffix.
    h.sent.clear()
    h.buffer.flush()
    for _mid, message in h.sent:
        assert [ts for ts, _r in message.records] == [4, 5]


def test_set_backups_extends_and_shrinks():
    h = Harness()
    h.buffer.set_backups((1, 2, 3))
    assert h.buffer.acked[3] == 0
    h.buffer.set_backups((1,))
    assert set(h.buffer.acked) == {1}


def test_removing_the_speedy_target_leaves_nothing_of_it_and_strands_no_force():
    """A unilateral view edit drops the backup a pending force was shipped
    to -- with a flush the window cut short, the worst case -- and sweeps:
    the force resolves on the remaining backup's ack."""
    h = Harness(max_batch=2)
    for n in range(1, 4):
        h.buffer.add(record(n))
    force = h.buffer.force_to(Viewstamp(VID, 3))
    assert h.records_to(1) == [1, 2] and h.records_to(2) == []  # 1 is the target
    buffer = h.buffer
    buffer.set_backups((2,))
    for per_backup in (buffer.acked, buffer._sent, buffer._pushed, buffer._progress_at, buffer._cut):
        assert 1 not in per_backup
    buffer.flush()  # what the edit does next
    h.ack(1, 2)  # a late ack of the excluded backup: a stray
    h.ack(2, 2)  # opens the window: no KeyError, the rest follows
    assert h.records_to(2) == [1, 2, 3] and not force.done
    h.ack(2, 3)
    assert force.done and force.exception() is None and h.force_failures == 0
    assert h.sim.now == 0.0  # nobody waited for a timeout


def test_excluding_slow_backup_can_complete_force():
    """Unilateral exclusion: removing a dead backup lets a force that only
    needs a sub-majority complete with the live ones."""
    h = Harness(backups=(1, 2, 3, 4), config_size=5)  # sub-majority 2
    vs = h.buffer.add(record())
    force = h.buffer.force_to(vs)
    h.ack(1, 1)
    assert not force.done
    h.buffer.set_backups((1, 2))
    h.ack(2, 1)
    assert force.done


def test_force_beyond_generated_raises():
    h = Harness()
    with pytest.raises(Exception):
        h.buffer.force_to(Viewstamp(VID, 5))


def test_unforced_count():
    h = Harness()
    h.buffer.add(record(1))
    h.buffer.add(record(2))
    assert h.buffer.unforced_count == 2
    h.ack(1, 1)
    assert h.buffer.unforced_count == 1


# -- a coalescing delay (BatchConfig): one tick serves the interval's requests --


def batched(**kwargs):
    kwargs.setdefault("flush_delay", 1.0)
    return Harness(**kwargs)


@pytest.mark.parametrize("flush_delay", [0.0, 1.0])
def test_an_add_alone_ships_nothing_before_the_sweep(flush_delay):
    h = Harness(flush_delay=flush_delay)
    for n in range(1, 4):
        h.buffer.add(record(n))
    h.sim.run(until=4.0)
    assert h.sent == []  # nobody asked: the records wait for the sweep
    h.buffer.flush()
    assert h.records_to(1) == h.records_to(2) == [1, 2, 3]


def test_batched_add_defers_send_until_flush_tick():
    h = batched(flush_delay=1.0)
    for n in range(1, 4):
        h.buffer.add(record(n))
    h.buffer.force_to(Viewstamp(VID, 2))
    h.buffer.force_to(Viewstamp(VID, 3))
    assert h.sent == []  # nothing ships synchronously
    h.sim.run(until=1.0)
    # One coalesced BufferMsg for both forces, to the backup they wait for;
    # the other backup is the sweep's.
    assert [mid for mid, _m in h.sent] == [1]
    assert h.records_to(1) == [1, 2, 3] and h.records_to(2) == []
    h.buffer.flush()
    assert h.records_to(2) == [1, 2, 3]


def test_batched_tick_ships_only_new_records():
    h = batched()
    h.buffer.add(record(1))
    h.buffer.force_to(h.buffer.add(record(2)))
    h.sim.run(until=1.0)
    h.sent.clear()
    # No ack yet, but the send high-water mark remembers what shipped:
    # the next tick carries only the new suffix, not a full resend.
    h.buffer.force_to(h.buffer.add(record(3)))
    h.sim.run(until=2.0)
    assert h.records_to(1) == [3]
    assert h.records_to(2) == []


def test_a_backup_removed_before_its_tick_is_not_served():
    h = batched(backups=(1, 2, 3, 4), config_size=5)  # a force ships two
    h.buffer.force_to(h.buffer.add(record(1)))      # requests 1 and 2
    h.buffer.set_backups((2, 3, 4))                 # 1 leaves before the tick
    h.sim.run(until=1.0)
    assert [mid for mid, _m in h.sent] == [2]


def test_batched_window_stalls_at_pipeline_limit():
    h = batched(max_batch=2, pipeline_depth=2)
    for n in range(1, 11):
        h.buffer.add(record(n))
    h.buffer.force_to(Viewstamp(VID, 10))
    h.sim.run(until=2.0)
    h.buffer.flush()  # the other backup's share, before any rewind is due
    h.sim.run(until=5.0)
    # Unacked, each backup gets at most pipeline_depth * max_batch = 4
    # records -- a batch per tick -- then the sender stalls.
    assert h.records_to(1) == [1, 2, 3, 4]
    assert h.records_to(2) == [1, 2, 3, 4]
    # A cumulative ack opens the window and the pipe refills.
    h.sent.clear()
    h.ack(1, 4)
    h.sim.run(until=40.0)
    assert h.records_to(1) == [5, 6, 7, 8]
    assert h.records_to(2) == []


def test_batched_go_back_n_rewinds_stalled_backup():
    _go_back_n_rewinds_stalled_backup(flush_delay=1.0)


def test_unbatched_go_back_n_is_the_same_retransmitter():
    _go_back_n_rewinds_stalled_backup(flush_delay=0.0)


def _go_back_n_rewinds_stalled_backup(flush_delay):
    """The sweep goes back to the ack of a backup whose outstanding records
    made no ack progress for a full ``max(flush_interval, rto)`` -- plus the
    coalescing tick its ack may sit out -- and not sooner."""
    rtos = {1: 7.0, 2: None}  # backup 1's learned RTO exceeds the sweep period
    h = Harness(max_batch=8, rto=rtos.get, flush_delay=flush_delay)
    for n in range(1, 4):
        h.buffer.add(record(n))
    h.buffer.force_to(Viewstamp(VID, 3))
    h.sim.run(until=1.0)  # shipped to backup 1 at 0.0, or on the 1.0 tick
    h.buffer.flush()  # the force shipped backup 1 only: the sweep, the rest
    shipped_at, patience = 0.0 + flush_delay, 7.0 + flush_delay
    assert h.records_to(1) == h.records_to(2) == [1, 2, 3]
    h.sent.clear()
    # Backup 2 acked everything; backup 1's traffic was lost (no ack).
    h.ack(2, 3)
    for sweep_at in (5.0, shipped_at + patience - 0.25):
        h.sim.run(until=sweep_at)
        h.buffer.flush()  # a sweep period has passed, backup 1's patience has not
        assert h.sent == []
    h.sim.run(until=shipped_at + patience)
    h.buffer.flush()
    h.sim.run(until=shipped_at + patience + 1.0)
    assert h.records_to(1) == [1, 2, 3]  # rewound to its ack and re-sent
    assert h.records_to(2) == []  # fully-acked backup is left alone
    # The resend restarts backup 1's clock: no third copy before as long again.
    h.sent.clear()
    h.sim.run(until=shipped_at + 2 * patience - 0.25)
    h.buffer.flush()
    assert h.sent == []
    # A rewind is lost traffic: for force_timeout (50.0) after it a force
    # ships every backup, as two targets almost never both fail ...
    h.buffer.add(record(4))
    h.buffer.force_to(Viewstamp(VID, 4))
    h.sim.run(until=h.sim.now + flush_delay)
    assert sorted(mid for mid, _m in h.sent) == [1, 2]
    h.ack(1, 4)
    h.ack(2, 4)
    h.sent.clear()
    h.sim.run(until=shipped_at + patience + 50.0)
    h.buffer.flush()  # ... and without another one, a sub-majority again
    h.buffer.add(record(5))
    h.buffer.force_to(Viewstamp(VID, 5))
    h.sim.run(until=h.sim.now + flush_delay)
    assert [mid for mid, _m in h.sent] == [1]


def test_ack_progress_restarts_the_retransmission_clock():
    h = Harness()
    for n in range(1, 5):
        h.buffer.add(record(n))
    h.buffer.force_to(Viewstamp(VID, 4))
    h.buffer.flush()  # both backups have ts 1-4 outstanding since 0.0
    h.sent.clear()
    h.sim.run(until=4.0)
    h.ack(1, 2)  # partial progress at 4.0: the rest is not lost, just slow
    h.sim.run(until=8.9)
    h.buffer.flush()
    assert h.records_to(1) == []
    assert h.records_to(2) == [1, 2, 3, 4]  # silent for 5.0: go back to ts 0
    h.sim.run(until=9.0)
    h.buffer.flush()
    assert h.records_to(1) == [3, 4]  # 5.0 after its last progress, from its ack


def test_batched_cumulative_ack_resolves_every_covered_force():
    h = batched()
    vs1 = h.buffer.add(record(1))
    vs2 = h.buffer.add(record(2))
    f1 = h.buffer.force_to(vs1)
    f2 = h.buffer.force_to(vs2)
    assert not f1.done and not f2.done
    # One cumulative ack covering both timestamps resolves both forces.
    h.ack(1, 2)
    assert f1.done and f2.done


def test_batched_ack_regression_does_not_rewind_send_mark():
    h = batched()
    for n in range(1, 4):
        h.buffer.add(record(n))
    h.buffer.force_to(Viewstamp(VID, 3))
    h.sim.run(until=1.0)
    h.ack(1, 3)
    h.sent.clear()
    # A stale (lower) cumulative ack must not move progress backwards
    # or trigger redundant resends.
    h.ack(1, 1)
    assert h.buffer.acked[1] == 3
    h.buffer.flush()
    h.sim.run(until=2.0)
    assert h.records_to(1) == []


def test_batched_ack_advances_send_mark_past_lost_sends():
    h = batched(max_batch=1, pipeline_depth=1)
    h.buffer.add(record(1))
    h.buffer.force_to(h.buffer.add(record(2)))
    h.sim.run(until=5.0)  # window of 1: only ts=1 ships unacked
    assert h.records_to(1) == [1]
    # The backup learned ts=2 some other way (e.g. a rewound resend raced
    # a late ack): the ack fast-forwards the send mark, no resend of 1-2.
    h.sent.clear()
    h.ack(1, 2)
    h.sim.run(until=10.0)
    assert h.records_to(1) == []


# -- background delivery: the push ------------------------------------------------


def test_push_ships_to_one_backup_and_the_force_opens_only_the_other_link():
    """A single-call transaction costs no extra message: push + ack on one
    link, and the prepare's force sends that link nothing.  The other link is
    the sweep's -- or, after lost traffic, the only one the force opens."""
    h = Harness()
    stamp = h.buffer.add(record(1))
    h.buffer.push()
    assert [mid for mid, _m in h.sent] == [1] and h.buffer.pushes == 1
    force = h.buffer.force_to(stamp)
    assert not force.done                       # the push's ack is still out
    assert [mid for mid, _m in h.sent] == [1]   # ... and is all the force needs
    h.ack(1, 1)
    assert force.done and h.records_to(1) == [1] and h.records_to(2) == []
    h.buffer.flush()
    assert h.records_to(2) == [1]
    # Backup 2 never answers: at 5.0 the sweep rewinds it, and forces go to
    # everybody -- over the link the push left closed, and no other.
    h.sim.run(until=5.0)
    h.buffer.flush()
    h.sent.clear()
    stamp = h.buffer.add(record(2))
    h.buffer.push()
    assert [mid for mid, _m in h.sent] == [1]
    h.buffer.force_to(stamp)
    assert [mid for mid, _m in h.sent] == [1, 2]


def test_an_acknowledged_push_lets_the_force_return_at_once_and_send_nothing():
    h = Harness()
    stamp = h.buffer.add(record(1))
    h.buffer.push()
    h.ack(1, 1)
    h.sent.clear()
    assert h.buffer.force_to(stamp).done and h.sent == []
    h.buffer.add(record(2))
    h.buffer.force_to(Viewstamp(VID, 2))
    assert h.records_to(2) == [] and h.records_to(1) == [2]
    h.buffer.flush()                            # the other backup catches up, coalesced
    assert [len(m.records) for mid, m in h.sent if mid == 2] == [2]


def test_the_gate_is_one_unacknowledged_push_per_link_and_its_ack_re_offers():
    h = Harness()
    for n in (1, 2, 3):
        h.buffer.add(record(n))
        h.buffer.push()
    assert h.records_to(1) == [1] and h.records_to(2) == []  # 2, 3 met a shut gate
    h.ack(1, 1)
    assert h.records_to(1) == [1, 2, 3] and h.buffer.pushes == 2
    h.ack(1, 3)
    assert h.buffer.pushes == 2 and len(h.sent) == 2         # nothing is left to offer


def test_force_traffic_does_not_shut_the_gate():
    h = Harness()
    h.buffer.add(record(1))
    h.buffer.force_to(Viewstamp(VID, 1))        # unacked force traffic on the push's link
    h.buffer.add(record(2))
    h.buffer.push()
    assert h.records_to(1) == [1, 2] and h.records_to(2) == []


def test_push_goes_to_a_sub_majoritys_worth_of_the_best_acknowledged_backups():
    h = Harness(backups=(1, 2, 3, 4), config_size=5)
    h.buffer.add(record(1))
    h.buffer.force_to(Viewstamp(VID, 1))
    h.ack(3, 1)
    h.ack(4, 1)
    h.sent.clear()
    h.buffer.add(record(2))
    h.buffer.push()
    assert sorted(mid for mid, _m in h.sent) == [3, 4]   # not 1 and 2, which lag


def test_a_backup_that_stops_acking_loses_the_push_by_itself():
    h = Harness()
    h.buffer.add(record(1))
    h.buffer.push()                              # to 1; never acknowledged
    stamp = h.buffer.add(record(2))
    h.buffer.force_to(stamp)
    h.ack(2, 2)                                  # 2 is now the better-acknowledged
    h.sent.clear()
    h.buffer.add(record(3))
    h.buffer.push()
    assert [mid for mid, _m in h.sent] == [2]


def test_a_lost_push_is_the_sweeps_to_resend_and_keeps_its_gate_shut_meanwhile():
    h = Harness()
    h.buffer.add(record(1))
    h.buffer.push()                              # lost
    h.sim.run(until=4.0)
    h.buffer.add(record(2))
    h.buffer.push()
    assert h.records_to(1) == [1]                # shut: no second push
    h.sim.run(until=5.0)
    h.buffer.flush()                             # 5 units without ack progress
    assert h.records_to(1) == [1, 1, 2] and h.records_to(2) == [1, 2]
    h.ack(1, 2)
    h.buffer.add(record(3))
    h.buffer.push()
    assert h.records_to(1) == [1, 1, 2, 3]       # acknowledged past the push: open


def test_a_batched_push_rides_the_tick_and_is_not_gated():
    """The tick already coalesces: every push of an interval is one message
    to the speedy backup, and an unacknowledged one shuts no gate."""
    h = batched()
    for n in (1, 2):
        h.buffer.add(record(n))
        h.buffer.push()
    assert h.sent == [] and h.buffer.pushes == 2
    h.sim.run(until=1.0)
    assert [mid for mid, _m in h.sent] == [1] and h.records_to(1) == [1, 2]
    h.buffer.add(record(3))
    h.buffer.push()                              # [1, 2] is still unacknowledged
    h.sim.run(until=2.0)
    assert h.records_to(1) == [1, 2, 3] and h.records_to(2) == []


def test_push_on_a_single_cohort_group_and_a_closed_buffer_does_nothing():
    h = Harness(backups=(), config_size=1)
    h.buffer.add(record(1))
    h.buffer.push()
    h = Harness()
    h.buffer.add(record(1))
    h.buffer.close()
    h.buffer.push()
    assert h.sent == []
