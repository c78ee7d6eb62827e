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

from typing import Dict, List, Optional, Tuple

from repro.config import GeoConfig, ProtocolConfig, ReadConfig
from repro.core.view_change import VIEW_RETRY_DELAY
from repro.geo.topology import Topology, symmetric_topology
from repro.harness.common import ExperimentResult, build_kv_system
from repro.sim.process import sleep, spawn
from repro.workloads.loadgen import run_closed_loop

GEO_SEED = 2020

#: The placement conditions parts (a) and (b) sweep.
E20_PLACEMENTS = ("spread", "single_dc", "primary_affinity:dc-a")


def e20_topology() -> Topology:
    """The standard E20 shape: 3 DCs x 2 zones x 2 slots."""
    return symmetric_topology(n_dcs=3, zones_per_dc=2, slots_per_zone=2)


def geo_protocol_config(
    placement: str,
    reads: bool = False,
    topology: Optional[Topology] = None,
) -> ProtocolConfig:
    kwargs = {}
    if reads:
        kwargs["reads"] = ReadConfig(enabled=True)
    return ProtocolConfig(
        geo=GeoConfig(
            topology=topology if topology is not None else e20_topology(),
            placement=placement,
        ),
        **kwargs,
    )


def failover_bound(config: ProtocolConfig, topology: Topology) -> float:
    """The adaptive-timeout failover bound a placement must meet.

    Detection (suspect timeout) + promotion (underling timeout) + one
    formation round (invite timeout + retry) + a WAN allowance of ten
    cross-DC round trips for the formation traffic itself.
    """
    wan_rtt = 2.0 * (topology.cross_dc.base_delay + topology.cross_dc.jitter)
    return (
        config.suspect_timeout()
        + config.underling_timeout
        + config.invite_timeout
        + 2.0 * VIEW_RETRY_DELAY
        + 10.0 * wan_rtt
    )


# -- part (a): cross-region primary failover ------------------------------


def _failover_cell(seed: int, placement: str) -> Dict[str, float]:
    """Crash the kv primary; time detection -> new active primary."""
    config = geo_protocol_config(placement)
    topology = config.geo.topology
    rt, kv, clients, driver, spec = build_kv_system(
        seed=seed, n_cohorts=5, config=config, driver_site="dc-b/z1"
    )
    rt.run_for(400.0)

    committed_at: List[float] = []

    def prober():
        index = 0
        while True:
            index += 1
            outcome, _ = yield driver.call(
                "clients", "update", "kv", spec.key(index % spec.n_keys),
                retries=8,
            )
            if outcome == "committed":
                committed_at.append(rt.sim.now)
            yield sleep(10.0)

    spawn(rt.sim, prober(), name="e20a-prober")
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
    resumed = [at for at in committed_at if at > crashed_at]
    commit_gap = (resumed[0] - crashed_at) if resumed else float("nan")
    new_primary = kv.active_primary()
    new_site = (
        rt.node_sites[new_primary.node.node_id]
        if new_primary is not None
        else "?"
    )
    return {
        "failover": failover,
        "commit_gap": commit_gap,
        "old_region": topology.dc_of(old_site),
        "new_region": topology.dc_of(new_site),
        "bound": failover_bound(rt.config, topology),
    }


# -- part (b): commit latency vs placement (sharded 2PC) ------------------


def _commit_latency_cell(
    seed: int, placement: str, txns: int = 48, concurrency: int = 4
) -> Dict[str, float]:
    """The canonical sharded workload under one placement policy.

    ``single_dc`` (no pin) is the locality-aware condition: the round-
    robin placement puts one shard per DC, so single-shard seq_puts
    commit on a LAN quorum and only cross-shard transfers pay the WAN.
    """
    from repro.shard.workload import make_jobs, saturation_config

    shard_config = saturation_config(n_shards=3, concurrency=concurrency)
    rt = build_geo_runtime(seed, placement)
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

    return {
        "seq_put": mean(per_program["seq_put"]),
        "transfer": mean(per_program["transfer"]),
        "committed": float(stats.committed),
        "aborted": float(stats.aborted),
    }


def build_geo_runtime(seed: int, placement: str):
    """A bare geo-armed Runtime (no groups yet)."""
    from repro import Runtime

    return Runtime(seed=seed, config=geo_protocol_config(placement))


# -- part (c): region partition, majority commits vs minority leases ------


def _region_partition_cell(
    seed: int, partition_for: float = 800.0
) -> Dict[str, float]:
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
    read_failures: List[float] = []
    write_commits: List[float] = []
    stop = {"probing": False}

    def reader():
        index = 0
        while not stop["probing"]:
            index += 1
            result = yield driver_a.read(
                "kv", spec.key(index % spec.n_keys), prefer="primary",
                max_staleness=30.0, retries=4,
            )
            if result.ok:
                lease_reads.append((rt.sim.now, result.mode))
            else:
                read_failures.append(rt.sim.now)
            yield sleep(5.0)

    def writer():
        index = 0
        while not stop["probing"]:
            index += 1
            outcome, _ = yield driver_b.call(
                "clients", "update", "kv", spec.key(index % spec.n_keys),
                retries=10,
            )
            if outcome == "committed":
                write_commits.append(rt.sim.now)
            yield sleep(8.0)

    spawn(rt.sim, reader(), name="e20c-reader")
    spawn(rt.sim, writer(), name="e20c-writer")
    rt.run_for(300.0)

    cut_at = rt.sim.now
    rt.faults.partition_region(primary_region)
    rt.run_for(partition_for)
    rt.faults.heal_all()
    rt.run_for(1200.0)
    stop["probing"] = True
    rt.run_for(300.0)
    rt.quiesce(200.0)
    rt.check_invariants(require_convergence=True)

    healed_at = cut_at + partition_for
    leased_after_cut = [
        at
        for at, mode in lease_reads
        if cut_at < at < healed_at and mode == "lease"
    ]
    majority_commits = [at for at in write_commits if at > cut_at]
    return {
        "cut_at": cut_at,
        "last_minority_lease_read": (
            max(leased_after_cut) if leased_after_cut else cut_at
        ),
        "first_majority_commit": (
            min(majority_commits) if majority_commits else float("nan")
        ),
        "majority_commits_during": float(
            sum(1 for at in majority_commits if at < cut_at + partition_for)
        ),
        "minority_read_failures": float(
            sum(1 for at in read_failures if cut_at < at < cut_at + partition_for)
        ),
        "lease_duration": rt.config.reads.lease_duration,
    }


# -- the assembled experiment ---------------------------------------------


def e20_geo(seed: int = GEO_SEED) -> ExperimentResult:
    rows = []
    failover_ok = True
    for placement in E20_PLACEMENTS:
        cell = _failover_cell(seed, placement)
        within = cell["failover"] <= cell["bound"]
        failover_ok = failover_ok and within
        rows.append(
            (
                f"(a) failover [{placement}]",
                f"{cell['old_region']}->{cell['new_region']}",
                f"{cell['failover']:.1f}",
                f"{cell['commit_gap']:.1f}",
                f"bound {cell['bound']:.0f} "
                f"{'met' if within else 'MISSED'}",
            )
        )

    commit_cells = {
        placement: _commit_latency_cell(seed, placement)
        for placement in ("spread", "single_dc", "single_dc:dc-a")
    }
    for placement, cell in commit_cells.items():
        rows.append(
            (
                f"(b) 2PC latency [{placement}]",
                f"{cell['committed']:.0f} committed",
                f"{cell['seq_put']:.1f}",
                f"{cell['transfer']:.1f}",
                f"{cell['aborted']:.0f} aborted",
            )
        )

    region = _region_partition_cell(seed)
    lease_stop = region["last_minority_lease_read"]
    first_commit = region["first_majority_commit"]
    rows.append(
        (
            "(c) region partition",
            f"{region['majority_commits_during']:.0f} majority commits",
            f"{lease_stop - region['cut_at']:.1f}",
            f"{first_commit - region['cut_at']:.1f}",
            "leases stopped before new primary committed"
            if lease_stop < first_commit
            else "LEASE OVERLAP",
        )
    )

    locality_wins = (
        commit_cells["single_dc"]["seq_put"] < commit_cells["spread"]["seq_put"]
    )
    notes = (
        "(a) latency columns: view-change completion / first post-crash "
        "commit, both from the crash instant; every placement must meet "
        "the adaptive-timeout bound.  (b) columns: mean committed seq_put "
        "/ transfer latency -- one-shard-per-DC (single_dc) keeps "
        f"single-shard commits on LAN quorums ({'confirmed' if locality_wins else 'NOT confirmed'}: "
        f"{commit_cells['single_dc']['seq_put']:.1f} vs spread's "
        f"{commit_cells['spread']['seq_put']:.1f}).  (c) columns: last "
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
    )
