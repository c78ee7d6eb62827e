"""Background delivery end to end: the prepare that need not wait.

Section 3.7: "we expect that prepare messages are usually processed entirely
at the primary because the needed completed-call event records will already
be stored at a sub-majority".  ``ServerRole._run_call`` pushes a
transaction's (predicted) last completed call to a sub-majority's worth of
backups the moment it is added; these tests hold the push to what it buys
(the prepare's wait, records that survive a crash) and what it may cost (one
push per link per round trip, one per multi-call transaction; batched, one
coalescing tick).
"""

from repro import transaction_program
from repro.config import BatchConfig, ProtocolConfig
from repro.core.events import Aborted
from repro.harness.common import build_kv_system, drain, run_kv_batch
from repro.perf.report import ledger_digest
from repro.sim.process import sleep
from repro.txn.ids import Aid
from repro.workloads.loadgen import run_closed_loop

from tests.integration.test_send_once import FLOOD_LINK, STEADY, _quiet_group


def test_a_single_client_prepare_waits_for_jitter_not_for_a_round_trip():
    """One client, single-call transactions, default config: the push's ack
    and the prepare race over two one-way delays each, so the wait that is
    left is their jitter difference (the parent's mean was a 2.2 round trip)."""
    rt, _kv, _clients, driver, spec = build_kv_system(seed=31)
    stats = run_kv_batch(rt, driver, spec, 80, read_fraction=0.5, concurrency=1)
    rt.quiesce()
    assert stats.committed == 80
    wait = rt.metrics.latencies["prepare_force_wait"]
    assert wait.count == rt.metrics.counters["prepares_accepted:kv"] == 80
    assert wait.mean <= 0.5
    # The counter keeps its meaning: prepares whose force was not complete.
    waited = sum(1 for sample in wait.samples if sample > 0.0)
    assert waited == rt.metrics.counters.get("prepare_force_waits:kv", 0)


@transaction_program
def _eight_calls(txn, group, keys):
    for key in keys:
        yield txn.call(group, "incr", key, 1)
    return len(keys)


def test_a_multi_call_transaction_is_pushed_once_after_the_first():
    """The predictor: once a transaction of eight calls has prepared, only
    the eighth call of the next ones is worth a push (E5's 6.15 msgs/op
    instead of 7.03)."""
    rt, kv, clients, driver, spec = build_kv_system(seed=32)
    clients.register_program("eight", _eight_calls)
    buffer = kv.active_primary().buffer
    txns = 12
    jobs = [("eight", ("kv", [spec.key(i) for i in range(8)])) for _ in range(txns)]
    stats = run_closed_loop(rt, driver, "clients", jobs, concurrency=1)
    while stats.submitted < 1:
        rt.run_for(1.0)
    first = buffer.pushes
    assert 1 <= first <= 8
    drain(rt, stats, txns)
    rt.quiesce()
    assert stats.committed == txns
    assert buffer.pushes - first <= txns - 1
    assert rt.metrics.latencies["prepare_force_wait"].mean <= 0.5


def test_lock_step_clients_get_at_most_two_pushes_per_link_per_round_trip():
    """64 clients whose calls complete together on 8-unit links: the first
    is pushed, the rest wait for its ack (self-clocked), so no window of one
    round trip sees more than two pushes on a link."""
    count, round_trip = 256, 16.0
    rt, kv, _clients, driver, spec = build_kv_system(
        seed=1818, n_keys=count, link=FLOOD_LINK
    )
    buffer = kv.active_primary().buffer
    jobs = [("write", ("kv", spec.key(i), i)) for i in range(count)]
    stats = run_closed_loop(rt, driver, "clients", jobs, concurrency=64)
    samples = []  # pushes so far, every quarter round trip
    while stats.submitted < count and rt.sim.now < 5_000.0:
        rt.run_for(round_trip / 4)
        samples.append(buffer.pushes)
    rt.quiesce()
    assert stats.committed == count
    assert buffer.pushes >= count // 64              # it did run
    per_window = [late - early for early, late in zip(samples, samples[5:])]
    assert max(per_window) <= 2 * len(buffer.backups)  # 5 samples span > one round trip
    assert buffer.records_sent == buffer.timestamp * len(buffer.backups)


def _completed_call(primary, n):
    """What ``_run_call`` does with a completed call: add, then push."""
    stamp = primary.add_record(Aborted(aid=Aid("kv", primary.cur_viewid, 9000 + n)))
    primary.buffer.push()
    return stamp


def test_a_cut_link_moves_the_push_to_the_other_backup_and_abandons_no_force():
    rt, _kv, primary, first, second = _quiet_group()
    _completed_call(primary, 0)
    rt.run_for(1.0)
    preferred, other = (
        (first, second) if first.applied_ts > second.applied_ts else (second, first)
    )
    assert preferred.applied_ts == other.applied_ts + 1   # one backup was pushed to
    rt.run_for(1.0)
    rt.network.fail_link_oneway(primary.node.node_id, preferred.node.node_id)
    stamp = _completed_call(primary, 1)                   # this push is lost
    rt.run_for(2.0)
    assert other.applied_ts < stamp.ts
    force = primary.force_to(stamp)                       # the prepare: same link, nothing new
    rt.run_for(2.0)
    assert not force.done
    rt.run_for(primary.config.flush_interval)             # the sweep opens the other link
    assert force.done and force.exception() is None
    # The other backup's ack is now the highest: it has the push from here on.
    stamp = _completed_call(primary, 2)
    rt.run_for(1.0)
    assert other.applied_ts == stamp.ts
    rt.run_for(1.0)
    assert primary.force_to(stamp).done                   # stored before any prepare asks
    rt.network.repair_link_oneway(primary.node.node_id, preferred.node.node_id)
    rt.quiesce()
    assert preferred.applied_ts == primary.buffer.timestamp  # the sweep's go-back-N
    assert rt.ledger.view_changes == []


@transaction_program
def _write_then_think(txn, group, key, value, pause):
    yield txn.call(group, "put", key, value)
    yield sleep(pause)
    return value


def test_a_call_completed_before_the_primary_crashes_prepares_in_the_next_view():
    """E7's prepare refusals 2 -> 0: 1.5 one-way delays after the call
    completed its record is at a backup, that backup has the highest
    viewstamp and becomes the primary, and the prepare is compatible with
    its history.  (At the parent the record waited at the old primary for
    the prepare's force or the 5-unit sweep and died with it: refused.)"""
    rt, kv, clients, driver, spec = build_kv_system(seed=33, link=STEADY)
    clients.register_program("write_then_think", _write_then_think)
    rt.run_for(30.0)
    old = kv.active_primary()
    future = driver.call("clients", "write_then_think", "kv", spec.key(3), 7, 250.0)
    while rt.metrics.counters.get("calls_completed:kv", 0) == 0:
        rt.run_for(0.25)
    rt.run_for(1.5)
    old.node.crash()
    while not future.done and rt.sim.now < 2_000.0:
        rt.run_for(10.0)
    assert future.result()[0] == "committed"
    assert rt.metrics.counters.get("prepares_refused:kv", 0) == 0
    assert len(rt.ledger.view_changes_for("kv")) == 1
    assert kv.active_primary().store.get(spec.key(3)).base == 7


def test_the_default_cohort_pushes_and_the_batched_one_keeps_its_tick():
    """Batching is a delay, not a mode (DESIGN.md D20): both push, and the
    batched push rides the coalescing tick instead of the per-link gate."""
    for batched in (False, True):
        config = ProtocolConfig(batch=BatchConfig(enabled=batched))
        rt, kv, _clients, driver, spec = build_kv_system(seed=18, config=config)
        run_kv_batch(rt, driver, spec, 40, read_fraction=0.5, concurrency=4)
        rt.quiesce()
        buffer = kv.active_primary().buffer
        assert buffer.pushes > 0
        assert (max(buffer._pushed.values()) > 0) is not batched


def test_batched_mode_is_byte_identical_to_the_parent():
    """``BatchConfig(enabled=True)``: the same-seed ledger digest (commit
    times, event count and final clock included) is the recorded one.  Half of this
    run is reads, so the digest follows the read path: computed on PR 17,
    and again on PR 23, whose read-only transactions commit at the last
    accept (``tests/core/test_read_only_commit.py`` pins a write-only run
    that did not move).  Recomputed again when a write whose pset names
    ``kv`` alone began to commit at its prepare (DESIGN.md D17):
    ``CommitMsg`` / ``CommitAckMsg`` 63 -> 0 each, ``BufferMsg`` 418 -> 230
    and ``BufferAckMsg`` 395 -> 214, ``QueryMsg`` 2 -> 0, ``ImAliveMsg`` 511
    -> 585, 2 268 -> 1 845 messages and 4 059 -> 3 351 events.  And when a
    backup that trusts its primary stopped beaconing its fellow backups
    (DESIGN.md D19): ``ImAliveMsg`` 585 -> 369, ``BufferMsg`` 230 -> 214 and
    ``BufferAckMsg`` 214 -> 200, 1 845 -> 1 599 messages and 3 351 -> 3 095
    events.  And when batching became a delay rather than a mode (DESIGN.md
    D20: an add requests no tick, a tick serves the speedy backup, the sweep
    the other): ``BufferMsg`` 214 -> 143 and ``BufferAckMsg`` 200 -> 138,
    1 599 -> 1 466 messages and 3 095 -> 2 896 events."""
    config = ProtocolConfig(batch=BatchConfig(enabled=True))
    rt, _kv, _clients, driver, spec = build_kv_system(seed=18, config=config)
    stats = run_kv_batch(rt, driver, spec, 120, read_fraction=0.5, concurrency=8)
    rt.quiesce()
    assert stats.committed == 120
    assert ledger_digest(rt) == BATCHED_DIGEST


BATCHED_DIGEST = "6f9749147d51b22006f9692e99022af60ddbcf97021816cbd877141414096203"
