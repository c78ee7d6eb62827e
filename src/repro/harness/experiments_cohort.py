"""E21: cohort scaling -- gossip heartbeats, ack trees, witness replicas.

The paper expects "a small number of cohorts per group, on the order of
three or five"; "Can 100 Machines Agree?" (PAPERS.md) asks what breaks
when that number is 100.  E21 measures, for n in {5, 25, 50, 100} and
for each :class:`repro.config.ScaleConfig` mechanism alone and all-on:

- the primary's message load per heartbeat interval (the O(n) hot spot
  the mechanisms exist to flatten) and the mean per-node load;
- the view-change duration after a primary crash (epidemic liveness
  evidence trades detection latency for load -- the trade must be
  bounded, not runaway).

The companion determinism gate is ``python -m repro.gate scale``: scale
mechanisms may move messages and shift schedules, never change what the
protocol computes.
"""

from __future__ import annotations

import gc
from typing import Dict, Optional, Tuple

from repro.config import IM_ALIVE_INTERVAL, BatchConfig, ProtocolConfig, ScaleConfig
from repro.harness.common import ExperimentResult, build_kv_system, run_until
from repro.workloads.loadgen import run_closed_loop

SCALE_SEED = 21

def e21_modes(n: int) -> Dict[str, Optional[ScaleConfig]]:
    """The ScaleConfig of each E21 condition at group size *n*, in
    presentation order.

    Witness counts scale with the group (a third of it) rather than the
    ``n - Quorums.formation`` maximum: the maximum shrinks every force quorum
    to *all* storage members, which measures fragility, not the
    mechanism.
    """
    witnesses = max(1, n // 3)
    return {
        "baseline": None,
        "gossip": ScaleConfig(gossip=True),
        "acktree": ScaleConfig(ack_tree=True),
        "witness": ScaleConfig(witnesses=witnesses),
        "all": ScaleConfig(gossip=True, ack_tree=True, witnesses=witnesses),
    }


# -- the experiment cells --------------------------------------------------


def _e21_cell(seed: int, n: int, scale: Optional[ScaleConfig], txns: int) -> dict:
    """One (group size, mechanism) measurement cell.

    Every cell (baseline included) runs with PR 6 batching enabled: at
    n=100 the unbatched per-force flush re-sends each lagging backup its
    suffix, and with tree-aggregated acks in flight that retransmission
    traffic would swamp the steady-state load the mechanisms target.
    Batching is orthogonal and applied uniformly, so the cross-mode
    comparison stays fair -- and exercises the ack-tree/batching
    composition the mechanisms were designed for.
    """
    rt, kv, _clients, driver, spec = build_kv_system(
        seed=seed, n_cohorts=n, n_keys=txns,
        kv_config=ProtocolConfig(
            scale=scale,
            batch=BatchConfig(enabled=True, max_batch=64, pipeline_depth=4),
        ),
    )
    interval = IM_ALIVE_INTERVAL
    rt.run_for(20.0 * interval)  # settle into the initial view

    # Measurement window: fixed virtual duration, identical write count
    # across modes, so per-interval load normalizes fairly.
    rt.network.enable_address_counters()
    t0 = rt.sim.now
    jobs = [("write", ("kv", spec.key(index), index)) for index in range(txns)]
    stats = run_closed_loop(
        rt, driver, "clients", jobs, concurrency=4, max_attempts=None
    )
    window_end = t0 + 60.0 * interval
    run_until(rt, lambda: stats.committed >= txns, step=interval, max_time=100_000.0)
    if rt.sim.now < window_end:
        rt.run_for(window_end - rt.sim.now)
    elapsed = rt.sim.now - t0
    counters = rt.network.address_counters()
    loads = {
        mid: counters["sent"].get(address, 0) + counters["delivered"].get(address, 0)
        for mid, address in kv.configuration
    }
    primary = kv.active_primary()
    intervals = elapsed / interval
    primary_load = loads[primary.mymid] / intervals
    mean_load = sum(loads.values()) / (len(loads) * intervals)

    # Failover: crash the primary, time until a new view is serving.
    crashed = kv.crash_primary()
    crash_at = rt.sim.now
    run_until(rt, kv.active_primary, step=interval, max_time=2_000.0 * interval)
    new_primary = kv.active_primary()
    failover = rt.sim.now - crash_at if new_primary is not None else float("inf")
    kv.recover_cohort(crashed)
    rt.run_for(20.0 * interval)
    rt.quiesce()
    rt.check_invariants(require_convergence=False)
    return {
        "committed": stats.committed,
        "primary_load": primary_load,
        "mean_load": mean_load,
        "failover": failover,
    }


def e21_shape(rows, txns: int) -> list:
    """(a) every cell formed a post-crash view and committed its full load;
    (b) the headline claim: all-on cuts the primary's per-interval message
    load at least 5x at the largest size measured."""
    failures = []
    for row in rows:
        if row[6] != txns:
            failures.append(f"n={row[0]} {row[1]} lost writes: {row}")
        if row[5] == "inf":
            failures.append(f"n={row[0]} {row[1]} never re-formed: {row}")
    largest = max(row[0] for row in rows)
    cut = next(row[4] for row in rows if (row[0], row[1]) == (largest, "all"))
    if float(cut.rstrip("x")) < 5.0:
        failures.append(f"all-on primary cut only {cut} at n={largest}")
    return failures


def e21_cohort_scale(
    seed: int = SCALE_SEED,
    sizes: Tuple[int, ...] = (5, 25, 50, 100),
    txns: int = 24,
) -> ExperimentResult:
    rows = []
    reductions = {}
    for n in sizes:
        baseline_primary = None
        for mode, scale in e21_modes(n).items():
            cell = _e21_cell(seed, n, scale, txns)
            gc.collect()  # 20 cells of up to 100 cohorts: free each as it dies
            if mode == "baseline":
                baseline_primary = cell["primary_load"]
            reduction = (
                baseline_primary / cell["primary_load"]
                if baseline_primary and cell["primary_load"]
                else 1.0
            )
            if mode == "all":
                reductions[n] = reduction
            rows.append(
                (
                    n,
                    mode,
                    f"{cell['primary_load']:.1f}",
                    f"{cell['mean_load']:.1f}",
                    f"{reduction:.1f}x",
                    f"{cell['failover']:.0f}",
                    cell["committed"],
                )
            )
    largest = max(sizes)
    failures = e21_shape(rows, txns)
    verdict = (
        "DEGRADED" if failures else "sustained"
    ) + f"; all-on primary load cut {reductions.get(largest, 1.0):.1f}x at n={largest}"
    return ExperimentResult(
        exp_id="E21",
        title="cohort scaling: gossip heartbeats, ack trees, witness replicas",
        claim=(
            "VR'88 sizes groups at three-to-five cohorts; the primary's "
            "heartbeats to every member and its ack fan-in make it an O(n) "
            "hot spot.  Gossip dissemination, sub-quorum ack trees, and "
            "witness replicas (repro.scale) keep n=100 serving, cutting "
            "primary per-interval message load >= 5x all-on, at a bounded "
            "cost in failure-detection (hence view-change) latency."
        ),
        headers=(
            "n",
            "mode",
            "primary msgs/interval",
            "mean msgs/interval",
            "primary cut",
            "failover (t)",
            "committed",
        ),
        rows=rows,
        notes=(
            f"{verdict}.  Loads count sends+deliveries at each cohort "
            "address over a fixed 60-interval window carrying the same "
            f"{txns}-write load per cell; failover is crash-to-new-active-"
            "primary virtual time (gossip trades detection latency for "
            "load; witnesses shrink replication fan-out but not invites)."
        ),
        failures=failures,
    )
