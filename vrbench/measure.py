"""One pass of one workload: build, warm up, load, stop the clock, check.

Everything here reads the program from outside: ``Simulator.perf_counters``,
``Network`` totals, ``Metrics``, the ``TransactionLedger`` and the
``CommunicationBuffer`` counters.  Counters are reported as *deltas over
the load window* (after the warm-up, before the post-load heal/quiesce),
so set-up work never leaks into a per-transaction figure.
"""

from __future__ import annotations

import gc
import itertools
import math
import random
import time
from typing import Dict, List, Optional, Sequence

from repro.harness.common import BUFFER_MSGS, CALL_MSGS, TWOPC_MSGS, VIEWCHANGE_MSGS
from repro.perf.report import ledger_digest, state_digest

from vrbench import hostspeed
from vrbench.load import Load
from vrbench.workloads import WARMUP_OPS, System, Workload, key_space

#: Message types that terminate at a driver, not a cohort.
_DRIVER_BOUND = (
    "TxnOutcomeMsg", "ReadReplyMsg", "ReadRejectMsg", "ViewProbeReplyMsg",
)

#: How often a traced pass stops to sample the recorder's cost.
COST_SAMPLE_NS = 150_000_000

#: A percentile is reported only with at least this many samples beyond it:
#: a full-size pass needs 100 x this many operations to report a p99.
MIN_TAIL_SAMPLES = 10


class CheckFailed(AssertionError):
    """A pass produced a wrong output; the run prints no metrics."""


# -- statistics --------------------------------------------------------------


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile, ``p`` in (0, 100]; 0.0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(len(ordered) * p / 100.0))
    return ordered[rank - 1]


def failover_times(
    crashes: Sequence[float], due: Sequence[float], done: Sequence[Optional[float]]
) -> List[float]:
    """Per crash: crash instant -> resolve time of the first succeeded
    operation that was *due* after the crash (time without service as a
    client on a schedule sees it).  A crash after which nothing was due
    and served has no sample."""
    served = sorted(
        (d, f) for d, f in zip(due, done) if f is not None
    )
    # earliest resolve among operations due at or after each position
    suffix_min = [math.inf] * (len(served) + 1)
    for index in range(len(served) - 1, -1, -1):
        suffix_min[index] = min(served[index][1], suffix_min[index + 1])
    dues = [d for d, _f in served]
    out = []
    for crash in crashes:
        lo, hi = 0, len(dues)
        while lo < hi:  # first operation due strictly after the crash
            mid = (lo + hi) // 2
            if dues[mid] > crash:
                hi = mid
            else:
                lo = mid + 1
        if suffix_min[lo] < math.inf:
            out.append(suffix_min[lo] - crash)
    return out


# -- counters ----------------------------------------------------------------


def _sum_prefix(counters: Dict[str, int], prefix: str) -> int:
    """``Metrics`` counters are keyed ``name:groupid``; sum over groups."""
    return sum(
        value for key, value in counters.items()
        if key == prefix or key.startswith(prefix + ":")
    )


def snapshot(system: System, buffers: Optional[list]) -> dict:
    rt = system.rt
    sim = rt.sim.perf_counters()
    net = rt.network
    metrics = rt.metrics
    live = buffers if buffers is not None else [
        cohort.buffer
        for group in rt.groups.values()
        for cohort in group.cohorts.values()
        if cohort.buffer is not None
    ]
    return {
        "events": sim["events_processed"],
        "timers_created": sim["timers_created"],
        "timers_cancelled": sim["timers_cancelled"],
        "heap_compactions": sim["heap_compactions"],
        "peak_heap_size": sim["peak_heap_size"],
        "msgs_sent": net.messages_sent_total,
        "msgs_delivered": net.messages_delivered_total,
        "msgs_dropped": net.messages_dropped_total,
        "msgs_deduped": net.messages_deduped_total,
        "sent": dict(metrics.messages_sent),
        "delivered": dict(metrics.messages_delivered),
        "bytes": dict(metrics.bytes_sent),
        "counters": dict(metrics.counters),
        "latency_counts": {
            name: stat.count for name, stat in metrics.latencies.items()
        },
        "views": len(rt.ledger.view_changes),
        "faults": len(rt.ledger.faults),
        "detector_events": len(rt.ledger.detector_events),
        "trace_events": rt.tracer.events_emitted if rt.tracer else 0,
        "buffer_msgs": sum(b.msgs_sent for b in live),
        "buffer_records_sent": sum(b.records_sent for b in live),
        "buffer_records_added": sum(
            b.timestamp * len(b.backups) for b in live
        ),
        "buffer_flush_ticks": sum(b.flush_ticks for b in live),
    }


def _delta(before: dict, after: dict, key: str) -> int:
    return after[key] - before[key]


def _delta_map(before: dict, after: dict, key: str) -> Dict[str, int]:
    start = before[key]
    return {
        name: value - start.get(name, 0) for name, value in after[key].items()
    }


def _false_suspicions(system: System, first_event: int) -> int:
    """Suspicions raised (in the load window) against a node that was up."""
    rt = system.rt
    down_spans: Dict[str, List[List[float]]] = {}
    for fault in rt.ledger.faults:
        if fault.kind == "crash":
            down_spans.setdefault(fault.target, []).append([fault.at, math.inf])
        elif fault.kind == "recover" and fault.target in down_spans:
            down_spans[fault.target][-1][1] = fault.at
    false = 0
    for event in rt.ledger.detector_events[first_event:]:
        if event.kind != "suspect":
            continue
        node_id = rt.groups[event.groupid].cohort(event.target).node.node_id
        if not any(a <= event.at <= b for a, b in down_spans.get(node_id, ())):
            false += 1
    return false


# -- the pass ----------------------------------------------------------------


def _drive(system: System, load: Load, recorder=None, meter=None) -> None:
    """Start *load* and step the simulator until every operation of it has
    resolved.  With a *meter* (a ``hostspeed.Meter``) the loop is cut into slices of
    ``SLICE_EVENTS`` events, each timed, with the host-speed reference loop
    timed between them.  Under a *recorder* the loop stops every
    ``COST_SAMPLE_NS`` for the recorder to sample its own cost (see
    ``Recorder.sample_cost``)."""
    step = system.rt.sim.step
    clock = time.perf_counter_ns
    if meter is not None:
        ref_before = hostspeed.sample_ns()
        started = clock()
        load.start()
        while True:
            budget = hostspeed.SLICE_EVENTS
            while budget and load.remaining and step():
                budget -= 1
            wall_ns = clock() - started
            ref_after = hostspeed.sample_ns()
            meter.add(wall_ns, ref_before, ref_after)
            ref_before = ref_after
            if budget:  # the load is done, or the simulator ran dry
                break
            started = clock()
    elif recorder is not None:
        load.start()
        sample_at = clock() + COST_SAMPLE_NS
        while load.remaining and step():
            if clock() >= sample_at:
                recorder.sample_cost()
                sample_at = clock() + COST_SAMPLE_NS
    else:
        load.start()
        while load.remaining and step():
            pass
    if load.remaining:
        raise CheckFailed(
            f"simulation ran dry with {load.remaining} operations unresolved"
        )


def _fresh_key_retry(workload: Workload, n_ops: int):
    """Distinct-key workloads retry on the next unused key."""
    if not workload.distinct_keys:
        return None
    spare = itertools.count(n_ops + WARMUP_OPS)

    def retry_op():
        index = next(spare)
        if index >= key_space(n_ops):
            raise CheckFailed(f"{workload.name}: out of spare keys for retries")
        return workload.make_ops(None, 1, index)[0]

    return retry_op


def build_and_warm(workload: Workload, seed: int, n_ops: int, trace=None, meter=None):
    """Set-up: the system built, first view active, warm-up resolved.
    Returns the system and the retry policy the load must keep using.
    A set-up probe passes a *meter* to have both steps timed on it."""
    if trace is None:
        trace = workload.trace
    if meter is None:
        system = workload.build(workload, seed, n_ops, trace)
    else:
        system = meter.time(lambda: workload.build(workload, seed, n_ops, trace))
    retry_op = _fresh_key_retry(workload, n_ops)
    warm_rng = random.Random(f"vrbench/{workload.name}/{seed}/warm")
    warm = Load(
        system.rt.sim,
        system.driver,
        workload.make_ops(warm_rng, WARMUP_OPS, n_ops),
        clients=workload.clients or 4,
        retry_op=retry_op,
    )
    _drive(system, warm, meter=meter)
    if warm.failed_attempts and not workload.crash_every:
        raise CheckFailed(f"{warm.failed_attempts} warm-up attempts failed")
    return system, retry_op


def run_pass(
    workload: Workload,
    seed: int,
    n_ops: int,
    *,
    trace=None,
    recorder=None,
    buffers: Optional[list] = None,
) -> dict:
    """One pass.  Returns its wall time (as measured, and per slice on the
    reference host: see ``vrbench.hostspeed``), operation counts, exact
    metrics and digests.

    *recorder* (a ``vrbench.recorder.Recorder``) is installed around the
    load window only; timed passes leave it ``None``.  *buffers*, when
    given, is a list the caller keeps filled with every
    ``CommunicationBuffer`` ever opened (see ``recorder.buffer_registry``);
    without it only the buffers alive at the snapshot are counted.
    """
    rng = random.Random(f"vrbench/{workload.name}/{seed}")
    ops = workload.make_ops(rng, n_ops, 0)
    offsets = workload.offsets(rng, n_ops)
    system, retry_op = build_and_warm(workload, seed, n_ops, trace)
    rt = system.rt
    load = Load(
        rt.sim, system.driver, ops, clients=workload.clients, offsets=offsets,
        retry_op=retry_op,
    )
    nemesis = workload.nemesis(n_ops)
    gc.collect()
    before = snapshot(system, buffers)
    if nemesis is not None:
        rt.inject(nemesis)
    # Either way the wall time leaves out the stops to sample a cost.
    if recorder is not None:
        recorder.start()
        _drive(system, load, recorder=recorder)
        recorder.stop()
        wall_ns, slice_ref_ns = recorder.wall_ns, None
    else:
        meter = hostspeed.Meter()
        _drive(system, load, meter=meter)
        wall_ns, slice_ref_ns = sum(meter.wall_ns), meter.reference_wall_ns()
    after = snapshot(system, buffers)

    # -- the clock has stopped: settle, then check outputs ------------------
    rt.faults.stop()
    rt.faults.heal_all()
    rt.quiesce(duration=600.0 if nemesis is not None else None)
    check_outputs(workload, system, load)
    exact = exact_metrics(system, load, before, after)
    exact["txn.locks.orphaned"] = float(_orphaned_locks(system))

    return {
        "wall_s": wall_ns / 1e9,
        "slice_ref_ns": slice_ref_ns,
        "n_ops": len(ops),
        "succeeded": load.succeeded,
        "failed": load.gave_up,
        "exact": exact,
        "digests": {
            "ledger_digest": ledger_digest(rt),
            "state_digest": state_digest(rt),
        },
    }


def _orphaned_locks(system: System) -> int:
    """Objects still locked at a primary once every operation has resolved
    and the system has healed and gone quiet: locks nobody will release."""
    count = 0
    for group in system.rt.groups.values():
        store = group.active_primary().store
        count += sum(1 for uid in store.uids() if store.get(uid).lockers)
    return count


def check_outputs(workload: Workload, system: System, load: Load) -> None:
    rt = system.rt
    try:
        rt.check_invariants(require_convergence=True)
    except AssertionError as exc:
        raise CheckFailed(f"{workload.name}: {exc}") from exc
    for group in rt.groups.values():
        if group.active_primary() is None:
            raise CheckFailed(f"{workload.name}: {group.groupid} has no primary")
    if load.gave_up:
        raise CheckFailed(f"{workload.name}: {load.gave_up} operations never succeeded")
    if load.max_lateness > 1e-9:
        raise CheckFailed(f"{workload.name}: generator ran {load.max_lateness} late")
    if not workload.crash_every and load.failed_attempts:
        raise CheckFailed(
            f"{workload.name}: {load.failed_attempts} attempts failed on a "
            "fault-free workload"
        )
    if workload.distinct_keys:
        # every acknowledged write is readable from the (re-formed) primary
        store = rt.groups["kv"].active_primary().store
        for op, done in zip(load.ops, load.done):
            _group, key, value = op[3]
            if done is not None and store.get(key).base != value:
                raise CheckFailed(
                    f"{workload.name}: acknowledged write {key}={value} reads "
                    f"back {store.get(key).base!r}"
                )


def exact_metrics(
    system: System, load: Load, before: dict, after: dict
) -> Dict[str, float]:
    """Every metric that is a pure function of (workload, seed, n_ops)."""
    rt = system.rt
    n = load.succeeded
    latencies = load.latencies()
    window = load.finished_at - load.started_at
    sent = _delta_map(before, after, "sent")
    nbytes = _delta_map(before, after, "bytes")
    delivered = _delta_map(before, after, "delivered")
    counters = _delta_map(before, after, "counters")
    events = _delta(before, after, "events")
    msgs = _delta(before, after, "msgs_sent")

    def lat(name: str) -> List[float]:
        stat = rt.metrics.latencies.get(name)
        if stat is None:
            return []
        return stat.samples[before["latency_counts"].get(name, 0):]

    crashes = [
        fault.at for fault in rt.ledger.faults[before["faults"]:]
        if fault.kind == "crash"
    ]
    failover = failover_times(crashes, load.due, load.done)
    records_added = _delta(before, after, "buffer_records_added")
    buffer_msgs = _delta(before, after, "buffer_msgs")
    records_sent = _delta(before, after, "buffer_records_sent")
    accepted = _sum_prefix(counters, "prepares_accepted")
    read_lat = load.latencies("read")
    write_lat = load.latencies("call") if read_lat else []
    programs = [op[2] for op in load.ops if op[0] == "call"]

    def per_txn(types) -> float:
        return sum(sent.get(t, 0) for t in types) / n

    exact = {
        # -- end to end ------------------------------------------------------
        "commit_sim_p50": percentile(latencies, 50),
        "commit_sim_p99": percentile(latencies, 99),
        "txn_per_sim_time": n / window,
        "msgs_per_txn": msgs / n,
        "bytes_per_txn": sum(nbytes.values()) / n,
        "ok_share": 1.0 - load.failed_attempts / load.attempts,
        "failed_share": load.failed_attempts / load.attempts,
        "failover_sim_p50": percentile(failover, 50),
        "failover_sim_max": max(failover, default=0.0),
        "n_ops": n,
        # -- sim -------------------------------------------------------------
        "sim.events": events,
        "sim.events_per_txn": events / n,
        "sim.timers_created": _delta(before, after, "timers_created"),
        "sim.timers_cancelled": _delta(before, after, "timers_cancelled"),
        "sim.peak_heap_size": after["peak_heap_size"],
        "sim.heap_compactions": _delta(before, after, "heap_compactions"),
        # -- net.network -----------------------------------------------------
        "net.network.msgs_sent": msgs,
        "net.network.msgs_dropped": _delta(before, after, "msgs_dropped"),
        "net.network.msgs_deduped": _delta(before, after, "msgs_deduped"),
        "net.network.msgs_per_txn.call": per_txn(CALL_MSGS),
        "net.network.msgs_per_txn.buffer": per_txn(BUFFER_MSGS),
        "net.network.msgs_per_txn.twopc": per_txn(TWOPC_MSGS),
        "net.network.msgs_per_txn.viewchange": per_txn(VIEWCHANGE_MSGS),
        "net.network.msgs_per_txn.alive": per_txn(("ImAliveMsg",)),
        # -- net.messages ----------------------------------------------------
        "net.messages.bytes.buffer": nbytes.get("BufferMsg", 0),
        # -- core.buffer -----------------------------------------------------
        "core.buffer.flushes": buffer_msgs,
        "core.buffer.records_sent": records_sent,
        "core.buffer.records_per_msg": records_sent / max(1, buffer_msgs),
        "core.buffer.resend_ratio": records_sent / max(1, records_added),
        "core.buffer.flush_ticks": _delta(before, after, "buffer_flush_ticks"),
        "core.buffer.force_wait_sim_p50": percentile(lat("commit_force_latency"), 50),
        # -- core.cohort and roles -------------------------------------------
        "core.cohort.msgs_handled": _delta(before, after, "msgs_delivered")
        - sum(delivered.get(t, 0) for t in _DRIVER_BOUND),
        "core.client_role.txns_started": _sum_prefix(counters, "txns_started"),
        "core.client_role.call_retransmits": counters.get("call_retransmits", 0),
        "core.server_role.calls_completed": _sum_prefix(counters, "calls_completed"),
        "core.server_role.prepares_refused": _sum_prefix(counters, "prepares_refused"),
        "core.server_role.prepare_wait_share": _sum_prefix(
            counters, "prepare_force_waits"
        ) / max(1, accepted),
        # -- core.view_change + detect ---------------------------------------
        "core.view_change.views_started": _delta(before, after, "views"),
        "core.view_change.attempts": _sum_prefix(counters, "view_changes_started"),
        "core.view_change.formations_failed": _sum_prefix(
            counters, "view_formations_failed"
        ),
        "core.view_change.invite_retransmits": _sum_prefix(
            counters, "invite_retransmits"
        ),
        "core.view_change.duration_sim_p50": percentile(
            [
                d for groupid in rt.groups
                for d in rt.ledger.view_change_durations(groupid)
            ],
            50,
        ),
        "detect.suspicions": _sum_prefix(counters, "detector_suspicions"),
        "detect.false_suspicions": _false_suspicions(
            system, before["detector_events"]
        ),
        # -- reads -----------------------------------------------------------
        "reads.lease_reads": _sum_prefix(counters, "lease_reads"),
        "reads.backup_reads": _sum_prefix(counters, "backup_reads"),
        "reads.fallbacks": counters.get("driver_read_fallbacks", 0),
        "reads.lease_waits": _sum_prefix(counters, "lease_waits"),
        "reads.read_sim_p50": percentile(read_lat, 50),
        "reads.read_sim_p99": percentile(read_lat, 99),
        "reads.write_sim_p50": percentile(write_lat, 50),
        # -- shard -----------------------------------------------------------
        "shard.single_key_txns": programs.count("seq_put"),
        "shard.cross_shard_txns": programs.count("transfer"),
        # -- trace -----------------------------------------------------------
        "trace.events_emitted": _delta(before, after, "trace_events"),
        "trace.events_per_txn": _delta(before, after, "trace_events") / n,
    }
    return {name: round(float(value), 6) for name, value in exact.items()}


def assert_passes_agree(workload: Workload, passes: Sequence[dict]) -> None:
    """Same seed, same inputs: every exact metric and both digests must be
    identical across passes, or the simulator is not deterministic."""
    first = passes[0]
    for other in passes[1:]:
        for section in ("digests", "exact"):
            if other[section] != first[section]:
                diff = sorted(
                    key for key in first[section]
                    if other[section].get(key) != first[section][key]
                )
                raise CheckFailed(
                    f"{workload.name}: same-seed passes disagree on {diff}"
                )
