"""The fixed, seeded scenario suite behind ``python -m repro.perf``.

Six scenarios spanning the regimes the roadmap cares about:

- ``micro_call_overhead``: the normal-case hot path -- a closed-loop
  read/write mix against a healthy 3-cohort group on a LAN.  This is the
  scenario the kernel optimizations are judged on.
- ``e13_end_to_end``: the E13 shape -- a write workload that rides out two
  staggered primary crashes, exercising view changes and call retries.
- ``lossy_view_change_storm``: the E16 shape -- LOSSY links, repeated
  primary crashes, and a partition storm; stresses timer churn from
  retransmission and failure detection (where lazy-cancel compaction pays).
- ``chaos_soak``: the seeded chaos soak from ``repro.harness.soak``,
  including its safety asserts.
- ``trace_overhead``: the same micro workload with repro.trace disabled,
  ring-buffered, and fully exported; regression-gates the tracing
  subsystem's "zero cost when disabled" claim.
- ``sharded_routing``: the E17 shape -- the canonical sharded workload
  (single-key seq_puts plus cross-shard transfers) over a 4-shard
  façade; regression-gates the routing layer and cross-group 2PC.
- ``batching_throughput`` / ``batching_pipeline``: the E18 shapes -- a
  deep-concurrency distinct-key write flood over a WAN-ish link, run
  twice per pass (``BatchConfig(enabled=False)`` then ``enabled=True``)
  with identical seeds.  The two runs must commit every transaction and
  agree byte-for-byte on the final replicated state
  (:func:`repro.perf.report.state_digest`); the batched/unbatched
  events-per-wall-second and txns-per-wall-second ratios land in
  ``extra``.  ``batching_pipeline`` additionally sets ``force_on_call``
  (the section 6 "speedy delivery" ablation), the regime where per-call
  forces make unbatched flushes most redundant.
- ``read_throughput`` / ``lease_overhead``: the E19 shapes -- a
  read-dominant zipfian open loop served by the full call path then by
  the leased read path (byte-identical final state asserted, latency
  speedup in ``extra``), and the same seeded KV batch with the lease
  machinery armed but idle, which must schedule identically to the
  reads-disabled run (gating ``ReadConfig``'s zero-cost-when-disabled
  claim the way ``trace_overhead`` gates tracing's).
- ``scale_overhead``: the ScaleConfig zero-cost claim -- the same seeded
  KV batch with ``scale=None`` and with an all-off ``ScaleConfig`` (the
  two must schedule byte-identically), plus an armed 7-cohort pass
  (gossip + ack tree + witnesses) whose final replicated state must
  match its own unscaled baseline.
- ``geo_overhead`` / ``geo_commit_latency``: the E20 shapes -- the same
  seeded KV batch on the flat network and on a degenerate one-DC
  topology whose every tier is the LAN default (the two must schedule
  byte-identically, gating ``GeoConfig``'s zero-cost-when-disabled
  claim), and the standard closed-loop mix on a 3-DC ``spread``
  placement where every quorum crosses the WAN (regression-gating the
  geo transport stack's latency).

Every scenario is deterministic given its pinned seed; ``quick`` scales the
workload down for CI without changing its shape.
"""

from __future__ import annotations

import dataclasses
import gc
import time
import tracemalloc
from typing import Callable, List, Optional

from repro import LOSSY, Nemesis
from repro.harness.common import build_kv_system, kv_jobs, run_kv_batch, drain
from repro.harness.soak import run_soak
from repro.perf.report import PerfReport, build_report, ledger_digest as _digest
from repro.shard.workload import run_sharded_workload
from repro.sim.process import sleep, spawn
from repro.workloads.loadgen import run_closed_loop


@dataclasses.dataclass
class Scenario:
    """One named, seeded workload plus how to read its latency metric."""

    name: str
    seed: int
    latency_key: Optional[str]
    run: Callable[[bool], object]  # (quick) -> finished Runtime


def _micro(quick: bool):
    txns = 200 if quick else 600
    rt, _kv, _clients, driver, spec = build_kv_system(seed=4242, n_cohorts=3)
    run_kv_batch(rt, driver, spec, txns, read_fraction=0.5, concurrency=4)
    rt.quiesce()
    return rt


def _e13_end_to_end(quick: bool):
    ops = 40 if quick else 120
    rt, _kv, _clients, driver, spec = build_kv_system(seed=1313, n_cohorts=3)
    jobs = kv_jobs(rt, spec, ops, read_fraction=0.0)
    stats = run_closed_loop(
        rt, driver, "clients", jobs, concurrency=1, think_time=10.0
    )
    rt.inject(
        Nemesis("perf-e13")
        .crash_primary("kv", every=150.0, count=1, recover_after=300.0)
        .crash_primary("kv", every=650.0, count=1, recover_after=300.0)
    )
    drain(rt, stats, ops, max_time=30_000)
    rt.quiesce()
    return rt


def _lossy_storm(quick: bool):
    duration = 2_500.0 if quick else 6_000.0
    rt, kv, _clients, driver, spec = build_kv_system(
        seed=1601, n_cohorts=3, link=LOSSY
    )
    rt.inject(
        Nemesis("perf-storm")
        .crash_primary(
            "kv", every=700.0, count=int(duration // 700), recover_after=300.0
        )
        .partition_storm(
            [node.node_id for node in kv.nodes()],
            mean_healthy=900.0,
            mean_partitioned=250.0,
        )
    )
    outcomes = {"total": 0}

    def prober():
        index = 0
        while rt.sim.now < duration:
            index += 1
            future = driver.call(
                "clients", "write", "kv", spec.key(index % spec.n_keys), index,
                retries=2,
            )
            yield future
            outcomes["total"] += 1
            yield sleep(40.0)

    spawn(rt.sim, prober(), name="perf-prober")
    rt.run(until=duration)
    rt.faults.stop()
    rt.faults.heal()
    rt.faults.restore_links()
    rt.quiesce(duration=600)
    return rt


def _trace_overhead(quick: bool):
    """The repro.trace zero-cost claim, measured: the same seeded KV batch
    with tracing disabled, with the in-memory ring (+ all monitors), and
    with a full JSONL export.  The disabled pass is the one the report's
    events/s figure and digest come from, so the baseline gate fails if
    instrumented-but-disabled hot paths regress; the ratios land in
    ``extra`` for the record."""
    import os
    import tempfile

    txns = 150 if quick else 450

    def one(trace):
        rt, _kv, _clients, driver, spec = build_kv_system(
            seed=4242, n_cohorts=3, trace=trace
        )
        started = time.perf_counter()
        run_kv_batch(rt, driver, spec, txns, read_fraction=0.5, concurrency=4)
        rt.quiesce()
        elapsed = time.perf_counter() - started
        return rt, rt.sim.events_processed / max(elapsed, 1e-9)

    from repro.config import TraceConfig

    rt_off, rate_off = one(None)
    rt_ring, rate_ring = one(TraceConfig(monitors="all"))
    export_dir = tempfile.mkdtemp(prefix="repro-trace-perf-")
    export_path = os.path.join(export_dir, "trace.jsonl")
    rt_export, rate_export = one(
        TraceConfig(monitors="all", export_path=export_path)
    )
    rt_export.tracer.maybe_export()
    # Tracing is pure observation: all three modes must schedule and
    # decide identically or the overhead comparison is meaningless.
    digests = {_digest(rt_off), _digest(rt_ring), _digest(rt_export)}
    if len(digests) != 1:
        raise AssertionError(
            f"trace_overhead: modes diverged ({sorted(d[:12] for d in digests)})"
        )
    rt_off.perf_extra = {
        "events_per_sec_disabled": round(rate_off, 1),
        "events_per_sec_ring": round(rate_ring, 1),
        "events_per_sec_export": round(rate_export, 1),
        "ring_overhead_pct": round(100.0 * (1.0 - rate_ring / rate_off), 2),
        "export_overhead_pct": round(100.0 * (1.0 - rate_export / rate_off), 2),
        "trace_events": rt_ring.tracer.events_emitted,
    }
    return rt_off


def _liveness_overhead(quick: bool):
    """The repro.live zero-cost claim, measured: the same seeded KV batch
    with the liveness checker disarmed and armed with the full relaxed
    spec catalog.  The disarmed pass supplies the report's events/s
    figure and digest (so the baseline gate gates the default-off hot
    path); the armed/disarmed ratio lands in ``extra``.  A clean run
    must also satisfy every spec -- the armed pass raises on any
    violation, so this scenario doubles as a no-fault liveness test."""
    from repro.live import spec_catalog
    from repro.perf.report import state_digest

    txns = 150 if quick else 450

    def one(arm: bool):
        rt, _kv, _clients, driver, spec = build_kv_system(
            seed=4242, n_cohorts=3
        )
        checker = None
        if arm:
            checker = rt.arm_liveness(spec_catalog("kv", rt.config, commits=1))
        started = time.perf_counter()
        run_kv_batch(rt, driver, spec, txns, read_fraction=0.5, concurrency=4)
        rt.quiesce()
        elapsed = time.perf_counter() - started
        return rt, checker, rt.sim.events_processed / max(elapsed, 1e-9)

    rt_off, _, rate_off = one(False)
    rt_armed, checker, rate_armed = one(True)

    def outcome(rt):
        ledger = rt.ledger
        return (
            sorted((str(aid), at) for aid, at in ledger.committed.items()),
            sorted((str(aid), why) for aid, why in ledger.aborted.items()),
            state_digest(rt),
        )

    # The checker's poll ticks add simulator events, so the event-counting
    # ledger_digest legitimately differs; what must NOT differ is anything
    # the protocol decided.  Compare the transaction outcomes and the
    # final replicated state instead.
    if outcome(rt_off) != outcome(rt_armed):
        raise AssertionError(
            "liveness_overhead: armed run diverged from disarmed run"
        )
    rt_off.perf_extra = {
        "events_per_sec_disabled": round(rate_off, 1),
        "events_per_sec_armed": round(rate_armed, 1),
        "armed_overhead_pct": round(100.0 * (1.0 - rate_armed / rate_off), 2),
        "liveness_polls": checker.polls,
    }
    return rt_off


def _batching_compare(
    quick: bool,
    seed: int,
    concurrency: int,
    txns: int,
    force_on_call: bool,
    base_delay: float = 8.0,
):
    """Shared body of the two E18 scenarios: the same seeded workload with
    batching off, then on.  Every job writes a distinct key, so the final
    replicated state is schedule-independent and the two configs must agree
    on it exactly -- the speedup measurement doubles as the batching safety
    check.  Returns the batched runtime; the cross-config ratios go to
    ``perf_extra``."""
    from repro.config import BatchConfig, ProtocolConfig
    from repro.net.link import LinkModel
    from repro.perf.report import state_digest

    count = txns if not quick else max(200, txns // 4)
    link = LinkModel(base_delay=base_delay, jitter=0.2)

    def one(enabled: bool):
        config = ProtocolConfig(
            force_on_call=force_on_call,
            batch=BatchConfig(
                enabled=enabled,
                max_batch=2048,
                flush_interval=0.5,
                pipeline_depth=4,
            ),
        )
        rt, _kv, _clients, driver, spec = build_kv_system(
            seed=seed, n_cohorts=3, n_keys=count, config=config, link=link
        )
        jobs = [("write", ("kv", spec.key(i), i)) for i in range(count)]
        started = time.perf_counter()
        stats = run_closed_loop(
            rt, driver, "clients", jobs, concurrency=concurrency
        )
        drain(rt, stats, count, step=50.0, max_time=2_000_000)
        rt.quiesce()
        elapsed = time.perf_counter() - started
        if stats.committed != count:
            raise AssertionError(
                f"batching compare (enabled={enabled}): committed "
                f"{stats.committed}/{count}"
            )
        return rt, stats, elapsed

    rt_plain, stats_plain, wall_plain = one(False)
    rt_batched, stats_batched, wall_batched = one(True)
    digest_plain = state_digest(rt_plain)
    digest_batched = state_digest(rt_batched)
    if digest_plain != digest_batched:
        raise AssertionError(
            "batching compare: final state diverged "
            f"({digest_plain[:12]} != {digest_batched[:12]})"
        )
    rate_plain = rt_plain.sim.events_processed / max(wall_plain, 1e-9)
    rate_batched = rt_batched.sim.events_processed / max(wall_batched, 1e-9)
    txn_plain = stats_plain.committed / max(wall_plain, 1e-9)
    txn_batched = stats_batched.committed / max(wall_batched, 1e-9)
    rt_batched.perf_extra = {
        "events_per_sec_unbatched": round(rate_plain, 1),
        "events_per_sec_batched": round(rate_batched, 1),
        "speedup_events_per_sec": round(rate_batched / rate_plain, 2),
        "txn_per_sec_unbatched": round(txn_plain, 1),
        "txn_per_sec_batched": round(txn_batched, 1),
        "speedup_txn_per_sec": round(txn_batched / txn_plain, 2),
        "messages_unbatched": rt_plain.network.messages_sent_total,
        "messages_batched": rt_batched.network.messages_sent_total,
        "state_digest": digest_batched,
    }
    return rt_batched


def _batching_throughput(quick: bool):
    return _batching_compare(
        quick, seed=1818, concurrency=640, txns=2000, force_on_call=False
    )


def _batching_pipeline(quick: bool):
    return _batching_compare(
        quick, seed=1819, concurrency=768, txns=2000, force_on_call=True
    )


def _read_throughput(quick: bool):
    """The E19 shape: retry-until-commit distinct-key writes under a
    zipfian read-dominant open loop, served by the full transactional
    path and then by the leased-primary read path, same seed.  Every
    write eventually commits and reads never mutate, so the two configs
    must agree byte-for-byte on the final replicated state -- the
    speedup measurement doubles as the read-path safety check.  The
    leased runtime supplies the report (gating the serving path CI
    actually runs); the cross-config latency ratios land in ``extra``."""
    from repro.config import ProtocolConfig, ReadConfig
    from repro.perf.report import state_digest
    from repro.workloads.loadgen import run_open_loop, run_retry_loop

    txns = 24 if quick else 48
    duration = 600.0 if quick else 1800.0

    def one(enabled: bool):
        config = (
            ProtocolConfig(reads=ReadConfig(enabled=True)) if enabled else None
        )
        rt, _kv, _clients, driver, spec = build_kv_system(
            seed=1901, n_cohorts=3, n_keys=txns, config=config
        )
        started = time.perf_counter()
        rt.run_for(60.0)
        jobs = [("write", ("kv", spec.key(i), i)) for i in range(txns)]
        wstats = run_retry_loop(rt, driver, "clients", jobs, concurrency=4)
        rstats = run_open_loop(
            rt, driver,
            key=spec.key, n_keys=txns, duration=duration, rate=0.6,
            read_fraction=1.0, use_read_path=enabled, name="perf-reads",
        )
        deadline = rt.sim.now + 100_000.0
        while (
            wstats.committed < txns or not rstats.drained
        ) and rt.sim.now < deadline:
            rt.run_for(200.0)
        rt.quiesce()
        elapsed = time.perf_counter() - started
        if wstats.committed != txns:
            raise AssertionError(
                f"read_throughput (reads={enabled}): committed "
                f"{wstats.committed}/{txns}"
            )
        return rt, rstats, elapsed

    rt_plain, rstats_plain, wall_plain = one(False)
    rt_leased, rstats_leased, wall_leased = one(True)
    digest_plain = state_digest(rt_plain)
    digest_leased = state_digest(rt_leased)
    if digest_plain != digest_leased:
        raise AssertionError(
            "read_throughput: final state diverged "
            f"({digest_plain[:12]} != {digest_leased[:12]})"
        )
    rt_leased.perf_extra = {
        "events_per_sec_fullpath": round(
            rt_plain.sim.events_processed / max(wall_plain, 1e-9), 1
        ),
        "events_per_sec_leased": round(
            rt_leased.sim.events_processed / max(wall_leased, 1e-9), 1
        ),
        "read_mean_fullpath": round(rstats_plain.read_mean_latency, 3),
        "read_mean_leased": round(rstats_leased.read_mean_latency, 3),
        "read_latency_speedup": round(
            rstats_plain.read_mean_latency / rstats_leased.read_mean_latency,
            2,
        ),
        "reads_ok": rstats_leased.reads_ok,
        "messages_fullpath": rt_plain.network.messages_sent_total,
        "messages_leased": rt_leased.network.messages_sent_total,
        "state_digest": digest_leased,
    }
    return rt_leased


def _lease_overhead(quick: bool):
    """The ReadConfig zero-cost-when-disabled claim, measured: the same
    seeded KV batch with reads disabled and with the lease machinery
    armed but no client issuing reads.  Grants ride existing acks and
    heartbeats and ``ReadState`` arms no timers, so the armed-idle run
    must schedule *identically* -- asserted on the full ledger digest,
    event count and clock included.  The disabled pass supplies the
    report's events/s figure and digest, so the baseline gate gates the
    extension-free hot path; the armed/disabled ratio lands in
    ``extra``."""
    from repro.config import ProtocolConfig, ReadConfig

    txns = 150 if quick else 450

    def one(config):
        rt, _kv, _clients, driver, spec = build_kv_system(
            seed=4242, n_cohorts=3, config=config
        )
        started = time.perf_counter()
        run_kv_batch(rt, driver, spec, txns, read_fraction=0.5, concurrency=4)
        rt.quiesce()
        elapsed = time.perf_counter() - started
        return rt, rt.sim.events_processed / max(elapsed, 1e-9)

    rt_off, rate_off = one(None)
    rt_armed, rate_armed = one(ProtocolConfig(reads=ReadConfig(enabled=True)))
    if _digest(rt_off) != _digest(rt_armed):
        raise AssertionError(
            "lease_overhead: armed-idle run scheduled differently from the "
            f"disabled run ({_digest(rt_off)[:12]} != {_digest(rt_armed)[:12]})"
        )
    rt_off.perf_extra = {
        "events_per_sec_disabled": round(rate_off, 1),
        "events_per_sec_armed_idle": round(rate_armed, 1),
        "armed_idle_overhead_pct": round(
            100.0 * (1.0 - rate_armed / rate_off), 2
        ),
    }
    return rt_off


def _scale_overhead(quick: bool):
    """The ScaleConfig zero-cost claim, measured: the same seeded KV batch
    with ``scale=None`` and with an all-off :class:`ScaleConfig` attached.
    The Cohort constructor normalizes an all-off config to ``None``, so
    the armed-off run must schedule *identically* -- asserted on the full
    ledger digest, event count and clock included.  A third pass arms
    every mechanism (gossip + ack tree + witnesses) on a 7-cohort group;
    armed mechanisms move messages, so only the final replicated *state*
    must match, and the armed/off events-per-wall-second ratio lands in
    ``extra``.  The ``scale=None`` pass supplies the report's events/s
    figure and digest, so the baseline gate gates the disabled hot path."""
    from repro.config import ProtocolConfig, ScaleConfig
    from repro.perf.report import state_digest

    txns = 150 if quick else 450

    def one(config, n_cohorts=3):
        rt, _kv, _clients, driver, spec = build_kv_system(
            seed=4242, n_cohorts=n_cohorts, config=config
        )
        started = time.perf_counter()
        run_kv_batch(rt, driver, spec, txns, read_fraction=0.5, concurrency=4)
        rt.quiesce()
        elapsed = time.perf_counter() - started
        return rt, rt.sim.events_processed / max(elapsed, 1e-9)

    rt_off, rate_off = one(None)
    rt_alloff, rate_alloff = one(ProtocolConfig(scale=ScaleConfig()))
    if _digest(rt_off) != _digest(rt_alloff):
        raise AssertionError(
            "scale_overhead: all-off ScaleConfig scheduled differently from "
            f"scale=None ({_digest(rt_off)[:12]} != {_digest(rt_alloff)[:12]})"
        )
    armed = ProtocolConfig(
        scale=ScaleConfig(gossip=True, ack_tree=True, witnesses=2)
    )
    rt_armed, rate_armed = one(armed, n_cohorts=7)
    rt_base7, _ = one(None, n_cohorts=7)
    if state_digest(rt_armed) != state_digest(rt_base7):
        raise AssertionError(
            "scale_overhead: armed mechanisms changed the replicated state "
            f"({state_digest(rt_base7)[:12]} != {state_digest(rt_armed)[:12]})"
        )
    rt_off.perf_extra = {
        "events_per_sec_disabled": round(rate_off, 1),
        "events_per_sec_all_off": round(rate_alloff, 1),
        "all_off_overhead_pct": round(
            100.0 * (1.0 - rate_alloff / rate_off), 2
        ),
        "events_per_sec_armed_n7": round(rate_armed, 1),
        "armed_messages_n7": rt_armed.network.messages_sent_total,
        "baseline_messages_n7": rt_base7.network.messages_sent_total,
    }
    return rt_off


def _geo_overhead(quick: bool):
    """The GeoConfig zero-cost claim, measured: the same seeded KV batch
    on the flat network (``geo is None``) and on a degenerate one-DC
    topology whose every link tier equals the flat default (LAN), with
    placement and structural-link resolution armed.  Geography is pure
    transport shape: with identical link models the armed run must
    schedule *identically* -- asserted on the full ledger digest, event
    count and clock included.  The flat pass supplies the report's
    events/s figure and digest, so the baseline gate gates the
    ``geo is None`` hot path; the armed/flat ratio lands in ``extra``."""
    from repro.config import GeoConfig, ProtocolConfig
    from repro.geo.topology import Datacenter, Topology, Zone
    from repro.net.link import LAN

    txns = 150 if quick else 450

    def one(config):
        rt, _kv, _clients, driver, spec = build_kv_system(
            seed=4242, n_cohorts=3, config=config
        )
        started = time.perf_counter()
        run_kv_batch(rt, driver, spec, txns, read_fraction=0.5, concurrency=4)
        rt.quiesce()
        elapsed = time.perf_counter() - started
        return rt, rt.sim.events_processed / max(elapsed, 1e-9)

    one_dc = Topology(
        (Datacenter("dc", (Zone("z", slots=8),)),),
        intra_zone=LAN, intra_dc=LAN, cross_dc=LAN,
    )
    rt_flat, rate_flat = one(None)
    rt_geo, rate_geo = one(
        ProtocolConfig(geo=GeoConfig(topology=one_dc, placement="spread"))
    )
    if _digest(rt_flat) != _digest(rt_geo):
        raise AssertionError(
            "geo_overhead: LAN-equivalent topology scheduled differently "
            f"from the flat network ({_digest(rt_flat)[:12]} != "
            f"{_digest(rt_geo)[:12]})"
        )
    rt_flat.perf_extra = {
        "events_per_sec_flat": round(rate_flat, 1),
        "events_per_sec_geo": round(rate_geo, 1),
        "geo_overhead_pct": round(100.0 * (1.0 - rate_geo / rate_flat), 2),
        "structural_links": len(rt_geo.network.structural_links()),
    }
    return rt_flat


def _geo_commit_latency(quick: bool):
    """The E20(b) regime as a regression gate: the standard closed-loop
    KV mix on a 3-datacenter topology under ``spread`` placement, so
    every force commits on a cross-DC WAN quorum and the driver reads
    route geographically from its home site.  Gates the geo transport
    stack end to end -- structural link resolution, placement, sited
    routing -- on the latency CI actually compares across commits."""
    from repro.config import GeoConfig, ProtocolConfig
    from repro.geo.topology import symmetric_topology

    txns = 150 if quick else 450
    config = ProtocolConfig(
        geo=GeoConfig(
            topology=symmetric_topology(n_dcs=3, zones_per_dc=2,
                                        slots_per_zone=2),
            placement="spread",
        )
    )
    rt, _kv, _clients, driver, spec = build_kv_system(
        seed=2020, n_cohorts=5, config=config, driver_site="dc-b/z1"
    )
    run_kv_batch(rt, driver, spec, txns, read_fraction=0.5, concurrency=4)
    rt.quiesce()
    return rt


def _sharded_routing(quick: bool):
    txns = 60 if quick else 160
    rt, _sharded, _stats = run_sharded_workload(
        seed=1717, n_shards=4, txns=txns, concurrency=8
    )
    rt.quiesce()
    return rt


def _chaos_soak(quick: bool):
    duration = 4_000.0 if quick else 12_000.0
    captured = {}
    run_soak(
        seed=2026,
        duration=duration,
        verbose=False,
        on_runtime=lambda rt: captured.setdefault("rt", rt),
    )
    return captured["rt"]


SCENARIOS: List[Scenario] = [
    Scenario("micro_call_overhead", 4242, "call_latency:kv", _micro),
    Scenario("e13_end_to_end", 1313, "call_latency:kv", _e13_end_to_end),
    Scenario("lossy_view_change_storm", 1601, "call_latency:kv", _lossy_storm),
    Scenario("chaos_soak", 2026, "call_latency:kv", _chaos_soak),
    Scenario("trace_overhead", 4242, "call_latency:kv", _trace_overhead),
    Scenario("liveness_overhead", 4242, "call_latency:kv", _liveness_overhead),
    Scenario("sharded_routing", 1717, "call_latency:kv-s0", _sharded_routing),
    Scenario("batching_throughput", 1818, "call_latency:kv", _batching_throughput),
    Scenario("batching_pipeline", 1819, "call_latency:kv", _batching_pipeline),
    Scenario("read_throughput", 1901, "driver_read_latency", _read_throughput),
    Scenario("lease_overhead", 4242, "call_latency:kv", _lease_overhead),
    Scenario("scale_overhead", 4242, "call_latency:kv", _scale_overhead),
    Scenario("geo_overhead", 4242, "call_latency:kv", _geo_overhead),
    Scenario("geo_commit_latency", 2020, "call_latency:kv", _geo_commit_latency),
]


def scenario_names() -> List[str]:
    return [scenario.name for scenario in SCENARIOS]


def run_scenario(
    scenario: Scenario, quick: bool = False, best_of: int = 1
) -> PerfReport:
    """Run one scenario: ``best_of`` timing passes, then a tracemalloc pass.

    Throughput is taken from the fastest untraced pass (``best_of`` > 1
    smooths noisy shared CI runners); the memory pass pays tracemalloc's
    allocation-tracking overhead and contributes only peak heap.  All
    passes use the same seed, and their ledger digests are asserted
    identical -- every perf run therefore doubles as a same-seed
    determinism check.
    """
    wall_seconds = None
    runtime = None
    kernel = None
    first_digest = None
    for _ in range(max(1, best_of)):
        # A pass drops every Runtime it does not return, each one big cycle:
        # free them between passes, where they die, so the kernel's relaxed
        # gen-0 threshold cannot stack them.
        gc.collect()
        started = time.perf_counter()
        candidate = scenario.run(quick)
        elapsed = time.perf_counter() - started
        # Read before anything collects the pass's own dead Runtimes, so
        # that gc_unreachable counts only what the run itself leaked.
        counters = candidate.sim.perf_counters()
        collector = {
            name: counters[name] for name in ("gc_collections", "gc_unreachable")
        }
        digest = _digest(candidate)
        if first_digest is None:
            first_digest = digest
        elif digest != first_digest:
            raise AssertionError(
                f"{scenario.name}: same-seed timing passes diverged "
                f"({first_digest[:12]} != {digest[:12]})"
            )
        if wall_seconds is None or elapsed < wall_seconds:
            wall_seconds, runtime, kernel = elapsed, candidate, collector

    gc.collect()
    tracemalloc.start()
    try:
        traced_runtime = scenario.run(quick)
        _, peak_heap_bytes = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()

    report = build_report(
        runtime,
        scenario=scenario.name,
        seed=scenario.seed,
        wall_seconds=wall_seconds,
        peak_heap_bytes=peak_heap_bytes,
        latency_key=scenario.latency_key,
        extra={"quick": quick, **getattr(runtime, "perf_extra", {})},
        kernel=kernel,
    )
    traced_digest = _digest(traced_runtime)
    if traced_digest != report.ledger_digest:
        raise AssertionError(
            f"{scenario.name}: same-seed runs diverged "
            f"({report.ledger_digest[:12]} != {traced_digest[:12]})"
        )
    return report
