"""Seeded chaos soak: partition storm + lossy bursts, checked for safety.

Runs a KV group under a randomized (but fully seeded, hence replayable)
nemesis combining a partition storm with network-wide lossy bursts while
a prober writes throughout, then heals everything and asserts the two
things that must always hold:

- every committed history is one-copy serializable, and
- the group converges back to a single active primary whose backups
  match it.

Exits non-zero on any violation, so CI can run it as a smoke job::

    PYTHONPATH=src python -m repro.harness.soak --seed 2026 --duration 15000
"""

from __future__ import annotations

import argparse
import os
import sys

from repro import Nemesis
from repro.config import TraceConfig
from repro.harness.common import build_kv_system
from repro.sim.process import sleep, spawn
from repro.trace.export import write_jsonl


def run_soak(seed: int = 2026, duration: float = 15_000.0,
             verbose: bool = True, on_runtime=None, trace=None,
             liveness: bool = False, reads: bool = False,
             geo: bool = False, scale: bool = False) -> dict:
    """One soak run; returns summary stats, raises AssertionError on a
    safety violation, an online invariant violation (``trace`` with
    monitors enabled), a liveness violation (``liveness=True``), or
    failure to re-converge.

    ``on_runtime``, if given, is called with the :class:`~repro.Runtime`
    immediately after construction -- the CLI below uses it to export a
    failed run's artifacts without changing the return type.
    ``trace`` (a :class:`~repro.config.TraceConfig`) defaults to off; the
    CLI below turns monitors on by default.  ``liveness`` arms the relaxed
    :func:`repro.live.spec_catalog` against the KV group: the nemesis
    pauses the windows, but every clean interval (and the healed tail)
    must make progress or the run fails with a StallReport.  ``reads``
    arms the lease/backup read serving path (``ReadConfig``) and adds a
    read prober alongside the write prober, so the ``stale_lease``
    monitor is exercised under partitions and primary crash churn.
    ``geo`` spreads the group across a 3-datacenter topology with a
    sited driver and swaps the flat partition storm for region-scale
    chaos: random region partitions, WAN degradation episodes, and
    primary crashes.  ``scale`` grows the group to 9 cohorts with every
    ``repro.scale`` mechanism armed (gossip heartbeats, ack trees, and
    two witness replicas), so epidemic liveness, tree-aggregated acks,
    and witness voting are all exercised under the nemesis."""
    geo_cfg = None
    read_cfg = None
    scale_cfg = None
    if scale:
        from repro.config import ScaleConfig

        scale_cfg = ScaleConfig(gossip=True, ack_tree=True, witnesses=2)
    if reads:
        from repro.config import ReadConfig

        read_cfg = ReadConfig(enabled=True)
    if geo:
        from repro.config import GeoConfig
        from repro.geo import symmetric_topology

        geo_cfg = GeoConfig(
            topology=symmetric_topology(n_dcs=3, zones_per_dc=2,
                                        slots_per_zone=2),
            placement="spread",
        )
    config = None
    if read_cfg is not None or geo_cfg is not None or scale_cfg is not None:
        from repro.config import ProtocolConfig

        config = ProtocolConfig(reads=read_cfg, geo=geo_cfg, scale=scale_cfg)
    n_cohorts = 5 if geo else (9 if scale else 3)
    rt, kv, _clients, driver, spec = build_kv_system(
        seed=seed, n_cohorts=n_cohorts, trace=trace, config=config,
        driver_site="dc-a/z1" if geo else None,
    )
    if on_runtime is not None:
        on_runtime(rt)
    if liveness:
        from repro.live import spec_catalog

        rt.arm_liveness(spec_catalog("kv", rt.config, commits=1))
    node_ids = [node.node_id for node in kv.nodes()]
    nemesis = Nemesis("soak")
    if geo:
        # Region-scale chaos: whole datacenters drop off the WAN and the
        # WAN itself degrades, instead of node-granular partitions.
        nemesis.region_partition(
            region="random", every=2500.0, duration=600.0,
            count=max(1, int(duration // 2500)),
        ).wan_degradation(
            mean_healthy=1500.0, mean_degraded=400.0, factor=3.0, loss=0.05,
        )
    else:
        nemesis.partition_storm(
            node_ids, mean_healthy=700.0, mean_partitioned=300.0
        ).lossy_bursts(
            mean_healthy=500.0, mean_lossy=250.0, loss=0.15, duplicate=0.05
        )
    nemesis.crash_primary("kv", every=1500.0, count=int(duration // 1500),
                          recover_after=400.0)
    rt.inject(nemesis)
    outcomes = {"ok": 0, "total": 0}

    def prober():
        index = 0
        while rt.sim.now < duration:
            index += 1
            future = driver.call(
                "clients", "update", "kv", spec.key(index % spec.n_keys),
                retries=2,
            )
            outcome, _ = yield future
            outcomes["total"] += 1
            if outcome == "committed":
                outcomes["ok"] += 1
            yield sleep(50.0)

    spawn(rt.sim, prober(), name="soak-prober")
    reads_outcomes = {"ok": 0, "total": 0}
    if reads:

        def read_prober():
            index = 0
            while rt.sim.now < duration:
                index += 1
                prefer = "backup" if index % 2 == 0 else "primary"
                future = driver.read(
                    "kv", spec.key(index % spec.n_keys),
                    prefer=prefer, retries=2,
                    fallback=(
                        "clients", "read", ("kv", spec.key(index % spec.n_keys))
                    ),
                )
                result = yield future
                reads_outcomes["total"] += 1
                if result.ok:
                    reads_outcomes["ok"] += 1
                yield sleep(35.0)

        spawn(rt.sim, read_prober(), name="soak-read-prober")
    rt.run(until=duration)
    rt.faults.stop()
    rt.faults.heal()
    rt.faults.restore_links()
    if geo:
        # A WAN-degradation episode interrupted mid-flight leaves its
        # per-pair overrides behind; structural topology links survive.
        rt.faults.restore_wan()
    # Give the healed group time to reorganize and drain buffers, then
    # demand full safety: serializable history AND a converged view.
    limit = rt.sim.now + 6000
    while kv.active_primary() is None and rt.sim.now < limit:
        rt.run_for(200)
    rt.quiesce(duration=1200)
    assert kv.active_primary() is not None, "group never re-formed a view"
    rt.check_invariants(require_convergence=True)

    if rt.tracer is not None:
        rt.tracer.maybe_export()
    stats = {
        "seed": seed,
        "duration": duration,
        "trace_events": (
            rt.tracer.events_emitted if rt.tracer is not None else 0
        ),
        "probes": outcomes["total"],
        "committed": outcomes["ok"],
        "availability": round(outcomes["ok"] / max(outcomes["total"], 1), 3),
        "partitions": rt.faults.count("partition"),
        "lossy_bursts": rt.faults.count("lossy"),
        "crashes": rt.faults.count("crash"),
        "view_changes": len(rt.ledger.view_changes_for("kv")),
        "suspicions": rt.metrics.counters.get("detector_suspicions:kv", 0),
        "invite_retransmits": rt.metrics.counters.get(
            "invite_retransmits:kv", 0
        ),
    }
    if geo:
        stats.update({
            "region_partitions": rt.faults.count("region_partition"),
            "wan_degradations": rt.faults.count("wan_degradation"),
        })
    if scale:
        stats.update({
            "cohorts": n_cohorts,
            "witnesses": len(kv.witness_mids),
            "messages": rt.network.messages_sent_total,
        })
    if reads:
        stats.update({
            "read_probes": reads_outcomes["total"],
            "reads_ok": reads_outcomes["ok"],
            "lease_reads": rt.metrics.counters.get("lease_reads:kv", 0),
            "backup_reads": rt.metrics.counters.get("backup_reads:kv", 0),
            "read_fallbacks": rt.metrics.counters.get(
                "driver_read_fallbacks", 0
            ),
            "lease_waits": rt.metrics.counters.get("lease_waits:kv", 0),
        })
    if verbose:
        for key, value in stats.items():
            print(f"{key}: {value}")
    return stats


def export_failure_artifacts(runtime, failure, artifact_dir: str,
                             seed: int) -> list:
    """Preserve what a CI failure needs to be diagnosed offline: the
    rendered failure, the full trace ring as JSONL, and -- for an
    :class:`InvariantViolation` or a
    :class:`~repro.live.report.LivenessViolation` -- the causal slice
    that explains the offending event.  Returns the paths written."""
    os.makedirs(artifact_dir, exist_ok=True)
    written = []
    report_path = os.path.join(artifact_dir, f"failure-seed{seed}.txt")
    with open(report_path, "w") as fh:
        fh.write(f"{failure}\n")
    written.append(report_path)
    tracer = getattr(runtime, "tracer", None) if runtime is not None else None
    if tracer is not None:
        trace_path = os.path.join(artifact_dir, f"trace-seed{seed}.jsonl")
        tracer.export_jsonl(trace_path)
        written.append(trace_path)
    causal_slice = getattr(failure, "causal_slice", None)
    if causal_slice:
        slice_path = os.path.join(
            artifact_dir, f"causal-slice-seed{seed}.jsonl"
        )
        write_jsonl(failure.causal_slice, slice_path)
        written.append(slice_path)
    return written


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=2026)
    parser.add_argument("--duration", type=float, default=15_000.0)
    parser.add_argument(
        "--monitors", default="all",
        help='comma-separated repro.trace monitor names, "all", or "none" '
             "to disable tracing entirely (default: all)",
    )
    parser.add_argument(
        "--trace-export", default=None, metavar="PATH",
        help="write the trace to PATH (.json = Chrome format, else JSONL)",
    )
    parser.add_argument("--ring-size", type=int, default=65_536)
    parser.add_argument(
        "--liveness", action="store_true",
        help="arm the repro.live spec catalog: the nemesis relaxes the "
             "windows, but clean intervals and the healed tail must make "
             "progress or the soak fails with a StallReport",
    )
    parser.add_argument(
        "--reads", action="store_true",
        help="arm the read serving path (primary leases + stale-bounded "
             "backup reads) and probe it throughout, so the stale_lease "
             "monitor is exercised under the nemesis",
    )
    parser.add_argument(
        "--geo", action="store_true",
        help="spread the group across a 3-datacenter topology (repro.geo) "
             "and swap the flat partition storm for region partitions and "
             "WAN degradation episodes",
    )
    parser.add_argument(
        "--scale", action="store_true",
        help="grow the group to 9 cohorts with every repro.scale "
             "mechanism armed (gossip heartbeats, ack trees, two witness "
             "replicas) so the scaled paths run under the nemesis",
    )
    parser.add_argument(
        "--artifact-dir", default=None, metavar="DIR",
        help="on failure, write the failure report, the full trace JSONL, "
             "and the violation's causal slice here (CI uploads DIR)",
    )
    args = parser.parse_args(argv)
    trace = None
    if args.monitors != "none":
        monitors = (
            "all" if args.monitors == "all"
            else tuple(name for name in args.monitors.split(",") if name)
        )
        trace = TraceConfig(
            monitors=monitors,
            ring_size=args.ring_size,
            export_path=args.trace_export,
        )
    captured = {}
    try:
        run_soak(
            seed=args.seed, duration=args.duration, trace=trace,
            on_runtime=lambda rt: captured.setdefault("rt", rt),
            liveness=args.liveness, reads=args.reads, geo=args.geo,
            scale=args.scale,
        )
    except AssertionError as failure:
        print(f"SOAK FAILED: {failure}", file=sys.stderr)
        if args.artifact_dir:
            for path in export_failure_artifacts(
                captured.get("rt"), failure, args.artifact_dir, args.seed
            ):
                print(f"artifact: {path}", file=sys.stderr)
        return 1
    print("soak passed: serializable history, converged view")
    return 0


if __name__ == "__main__":
    sys.exit(main())
