"""Experiment E20: geo-replication -- placement, failover, and region faults.

The paper assumes one flat network; ``repro.geo`` places cohorts across
datacenters with per-pair structural link models and lets sited drivers
route reads to the nearest serving replica (docs/GEO.md).  E20 measures
what geography does to the protocol, in three parts:

- **(a) failover**: crash the kv primary and time the cross-region view
  change under each placement policy.  Reported against the adaptive-
  timeout bound :func:`failover_bound` -- detection plus formation plus
  a WAN allowance -- which every placement must meet.
- **(b) commit latency**: the canonical sharded workload (single-shard
  ``seq_put`` plus cross-shard ``transfer``) under naive ``spread``
  (every quorum crosses the WAN) vs locality-aware ``single_dc``
  sharding (one shard per DC: only cross-shard 2PC pays WAN prices) vs
  everything pinned in one DC.
- **(c) region partition**: a 5-cohort spread group with leases armed;
  the primary's region is cut off.  The majority side keeps committing
  after the view change, while the minority region's leased reads stop
  -- demonstrably *before* the new primary's first commit, which is
  exactly the lease-wait safety argument of docs/READS.md under a
  region-sized failure.

All cells are pure functions of the seed (same-seed replay is gated by
``python -m repro.gate geo``, which also checks that the *final state*
is placement-independent).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro import Runtime
from repro.config import INVITE_TIMEOUT, UNDERLING_TIMEOUT, ProtocolConfig
from repro.detect.backoff import VIEW_RETRY_DELAY
from repro.geo.topology import Topology
from repro.harness.common import (
    E20_PLACEMENTS,
    ExperimentResult,
    build_kv_system,
    geo_protocol_config,
    spawn_prober,
)
from repro.shard.workload import make_jobs, saturation_config
from repro.sim.process import sleep, spawn
from repro.workloads.loadgen import run_closed_loop

GEO_SEED = 2020


def failover_bound(config: ProtocolConfig, topology: Topology) -> float:
    """The adaptive-timeout failover bound a placement must meet.

    Detection (suspect timeout) + promotion (underling timeout) + one
    formation round (invite timeout + retry) + a WAN allowance of ten
    cross-DC round trips for the formation traffic itself.
    """
    wan_rtt = 2.0 * (topology.cross_dc.base_delay + topology.cross_dc.jitter)
    return (
        config.suspect_timeout()
        + UNDERLING_TIMEOUT
        + INVITE_TIMEOUT
        + 2.0 * VIEW_RETRY_DELAY
        + 10.0 * wan_rtt
    )


# -- part (a): cross-region primary failover ------------------------------


def _failover_row(seed: int, placement: str) -> tuple:
    """Crash the kv primary; time detection -> new active primary."""
    config = geo_protocol_config(placement)
    topology = config.geo.topology
    rt, kv, clients, driver, spec = build_kv_system(
        seed=seed, n_cohorts=5, config=config, driver_site="dc-b/z1"
    )
    rt.run_for(400.0)

    replies = spawn_prober(
        rt, driver, lambda index: ("update", "kv", spec.key(index)),
        retries=8, pause=10.0,
    )
    rt.run_for(200.0)

    crashed_at = rt.sim.now
    old_primary = kv.active_primary()
    old_site = rt.node_sites[old_primary.node.node_id]
    rt.faults.crash_primary("kv")
    rt.run_for(3000.0)

    completions = [
        event.completed_at
        for event in rt.ledger.view_changes_for("kv")
        if event.completed_at > crashed_at
    ]
    failover = (completions[0] - crashed_at) if completions else float("nan")
    resumed = [
        at for at, outcome in replies if outcome == "committed" and at > crashed_at
    ]
    commit_gap = (resumed[0] - crashed_at) if resumed else float("nan")
    new_primary = kv.active_primary()
    new_site = (
        rt.node_sites[new_primary.node.node_id]
        if new_primary is not None
        else "?"
    )
    bound = failover_bound(rt.config, topology)
    return (
        f"(a) failover [{placement}]",
        f"{topology.dc_of(old_site)}->{topology.dc_of(new_site)}",
        f"{failover:.1f}",
        f"{commit_gap:.1f}",
        f"bound {bound:.0f} {'met' if failover <= bound else 'MISSED'}",
    )


# -- part (b): commit latency vs placement (sharded 2PC) ------------------


def _commit_latency_row(
    seed: int, placement: str, txns: int = 48, concurrency: int = 4
) -> tuple:
    """The canonical sharded workload under one placement policy.

    ``single_dc`` (no pin) is the locality-aware condition: the round-
    robin placement puts one shard per DC, so single-shard seq_puts
    commit on a LAN quorum and only cross-shard transfers pay the WAN.
    """
    shard_config = saturation_config(n_shards=3, concurrency=concurrency)
    rt = Runtime(seed=seed, config=geo_protocol_config(placement))
    sharded = rt.sharded_group(
        "bank", n_shards=3, n_cohorts=3, config=shard_config
    )
    driver = rt.create_driver("driver", site="dc-a/z1")
    rt.run_for(500.0)
    jobs = make_jobs(seed, txns, cross_ratio=0.25)
    stats = run_closed_loop(rt, driver, sharded, jobs, concurrency=concurrency)
    rt.run_for(30000.0)

    per_program: Dict[str, List[float]] = {"seq_put": [], "transfer": []}
    for latency, (program, _args, outcome) in zip(
        stats.latencies, stats.results
    ):
        if outcome == "committed":
            per_program[program].append(latency)

    def mean(values: List[float]) -> float:
        return sum(values) / len(values) if values else float("nan")

    return (
        f"(b) 2PC latency [{placement}]",
        f"{stats.committed} committed",
        f"{mean(per_program['seq_put']):.1f}",
        f"{mean(per_program['transfer']):.1f}",
        f"{stats.aborted} aborted",
    )


# -- part (c): region partition, majority commits vs minority leases ------


def _region_partition_row(seed: int, partition_for: float = 800.0) -> tuple:
    """Cut the primary's region off a 5-cohort spread group with leases.

    Two sited drivers probe throughout: one co-located with the primary's
    region (leased reads), one in another region (retried writes).  The
    claim under test: the minority's last lease-served read happens
    strictly before the majority's first post-partition commit.
    """
    config = geo_protocol_config("spread", reads=True)
    topology = config.geo.topology
    rt, kv, clients, driver_a, spec = build_kv_system(
        seed=seed, n_cohorts=5, config=config, driver_site="dc-a/z1"
    )
    # Spread places mid 0 (the initial primary) in dc-a: driver_a is the
    # minority-side reader, driver_b the majority-side writer.
    driver_b = rt.create_driver("driver-b", site="dc-b/z1")
    rt.run_for(400.0)

    primary = kv.active_primary()
    primary_region = topology.dc_of(rt.node_sites[primary.node.node_id])
    assert primary_region == "dc-a", (
        f"expected the initial primary in dc-a, found {primary_region}"
    )

    lease_reads: List[Tuple[float, str]] = []  # (at, mode) of ok reads
    cut_at = rt.sim.now + 300.0
    healed_at = cut_at + partition_for
    stop_at = healed_at + 1200.0

    def reader():
        index = 0
        while rt.sim.now < stop_at:
            index += 1
            result = yield driver_a.read(
                "kv", spec.key(index), prefer="primary", max_staleness=30.0, retries=4
            )
            if result.ok:
                lease_reads.append((rt.sim.now, result.mode))
            yield sleep(5.0)

    spawn(rt.sim, reader(), name="e20c-reader")
    writes = spawn_prober(
        rt, driver_b, lambda index: ("update", "kv", spec.key(index)),
        retries=10, pause=8.0, until=stop_at,
    )
    rt.run(until=cut_at)
    rt.faults.partition_region(primary_region)
    rt.run(until=healed_at)
    rt.faults.heal_all()
    rt.run(until=stop_at + 300.0)
    rt.quiesce(200.0)
    rt.check_invariants(require_convergence=True)

    leased_after_cut = [
        at
        for at, mode in lease_reads
        if cut_at < at < healed_at and mode == "lease"
    ]
    majority_commits = [
        at for at, outcome in writes if outcome == "committed" and at > cut_at
    ]
    lease_stop = max(leased_after_cut) if leased_after_cut else cut_at
    first_commit = min(majority_commits) if majority_commits else float("nan")
    return (
        "(c) region partition",
        f"{sum(at < healed_at for at in majority_commits)} majority commits",
        f"{lease_stop - cut_at:.1f}",
        f"{first_commit - cut_at:.1f}",
        "leases stopped before new primary committed"
        if lease_stop < first_commit
        else "LEASE OVERLAP",
    )


# -- the assembled experiment ---------------------------------------------


def e20_shape(rows) -> list:
    """(a) every placement's cross-region failover lands inside the
    adaptive-timeout bound; (b) the locality claim: one-shard-per-DC sharding
    beats spread placement on single-shard commit latency; (c) the fenced
    minority's leased reads expired before the surviving majority's new
    primary committed."""
    by_condition = {row[0]: row for row in rows}
    failures = [
        f"failover bound missed: {row}"
        for condition, row in by_condition.items()
        if condition.startswith("(a) failover") and not row[4].endswith("met")
    ]
    spread = float(by_condition["(b) 2PC latency [spread]"][2])
    local = float(by_condition["(b) 2PC latency [single_dc]"][2])
    if not local < spread:
        failures.append(f"locality did not win: single_dc {local} vs spread {spread}")
    region = by_condition["(c) region partition"]
    if "leases stopped" not in region[4]:
        failures.append(f"a lease outlived the majority's first commit: {region}")
    return failures


def e20_geo(seed: int = GEO_SEED) -> ExperimentResult:
    rows = (
        [_failover_row(seed, placement) for placement in E20_PLACEMENTS]
        + [
            _commit_latency_row(seed, placement)
            for placement in ("spread", "single_dc", "single_dc:dc-a")
        ]
        + [_region_partition_row(seed)]
    )
    failures = e20_shape(rows)
    spread, local = rows[3][2], rows[4][2]  # (b)'s seq_put latencies
    locality = "confirmed" if float(local) < float(spread) else "NOT confirmed"
    notes = (
        "(a) latency columns: view-change completion / first post-crash "
        "commit, both from the crash instant; every placement must meet "
        "the adaptive-timeout bound.  (b) columns: mean committed seq_put "
        "/ transfer latency -- one-shard-per-DC (single_dc) keeps "
        f"single-shard commits on LAN quorums ({locality}: "
        f"{local} vs spread's {spread}).  (c) columns: last "
        "minority lease-served read / first majority commit, offsets from "
        "the cut; the lease bound expires the fenced region's reads "
        "before the new primary can have committed."
    )
    return ExperimentResult(
        exp_id="E20",
        title="Geo-replication: placement, failover, and region faults",
        claim=(
            "Quorum placement dominates commit latency once replicas span "
            "datacenters; view changes still converge within the "
            "adaptive-timeout bound across regions; and a partitioned "
            "region's leased reads expire before the surviving majority's "
            "new primary commits."
        ),
        headers=("condition", "outcome", "t1", "t2", "verdict"),
        rows=rows,
        notes=notes,
        failures=failures,
    )
