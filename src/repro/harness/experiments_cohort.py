"""E21: cohort scaling -- gossip heartbeats, ack trees, witness replicas.

The paper expects "a small number of cohorts per group, on the order of
three or five"; "Can 100 Machines Agree?" (PAPERS.md) asks what breaks
when that number is 100.  E21 measures, for n in {5, 25, 50, 100} and
for each :class:`repro.config.ScaleConfig` mechanism alone and all-on:

- the primary's message load per heartbeat interval (the O(n) hot spot
  the mechanisms exist to flatten) and the mean per-node load;
- the view-change duration after a primary crash (epidemic liveness
  evidence trades detection latency for load -- the trade must be
  bounded, not runaway);
- simulator throughput (events/s of virtual work, wall-clock measured),
  i.e. whether the harness itself sustains n=100.

The companion determinism gate is ``python -m repro.gate scale``: scale
mechanisms may move messages and shift schedules, never change what the
protocol computes.
"""

from __future__ import annotations

import gc
import time
from typing import Optional, Tuple

from repro import EmptyModule, Runtime
from repro.config import BatchConfig, ProtocolConfig, ScaleConfig
from repro.harness.common import ExperimentResult
from repro.workloads.kv import KVStoreSpec, read_program, update_program, write_program
from repro.workloads.loadgen import run_closed_loop

SCALE_SEED = 21

#: E21 conditions, in presentation order.
E21_MODES = ("baseline", "gossip", "acktree", "witness", "all")


def mode_scale(mode: str, n: int) -> Optional[ScaleConfig]:
    """The ScaleConfig for one E21 condition at group size *n*.

    Witness counts scale with the group (a third of it) rather than the
    ``n - majority(n)`` maximum: the maximum shrinks every force quorum
    to *all* storage members, which measures fragility, not the
    mechanism.
    """
    if mode == "baseline":
        return None
    witnesses = max(1, n // 3)
    if mode == "gossip":
        return ScaleConfig(gossip=True)
    if mode == "acktree":
        return ScaleConfig(ack_tree=True)
    if mode == "witness":
        return ScaleConfig(witnesses=witnesses)
    if mode == "all":
        return ScaleConfig(gossip=True, ack_tree=True, witnesses=witnesses)
    raise ValueError(f"unknown E21 mode {mode!r}")


def _build_scaled_kv(
    seed: int, n_cohorts: int, scale: Optional[ScaleConfig], n_keys: int,
    batch: Optional[BatchConfig] = None,
):
    """A kv group of *n_cohorts* under *scale*, plus an unscaled 3-cohort
    client group (the helper group is plumbing, not the system under
    measurement, and witness counts are sized for the kv group)."""
    config = ProtocolConfig(scale=scale, batch=batch)
    # n=100 all-to-all heartbeats burn events fast; raise the runaway guard.
    rt = Runtime(seed=seed, config=ProtocolConfig(), max_events=100_000_000)
    spec = KVStoreSpec(n_keys=n_keys)
    kv = rt.create_group("kv", spec, n_cohorts=n_cohorts, config=config)
    clients = rt.create_group("clients", EmptyModule(), n_cohorts=3)
    clients.register_program("read", read_program)
    clients.register_program("write", write_program)
    clients.register_program("update", update_program)
    driver = rt.create_driver("driver")
    return rt, kv, clients, driver, spec


# -- the experiment cells --------------------------------------------------


def _e21_cell(seed: int, n: int, mode: str, txns: int = 24) -> dict:
    """One (group size, mechanism) measurement cell.

    Every cell (baseline included) runs with PR 6 batching enabled: at
    n=100 the unbatched per-force flush re-sends each lagging backup its
    suffix, and with tree-aggregated acks in flight that retransmission
    traffic would swamp the steady-state load the mechanisms target.
    Batching is orthogonal and applied uniformly, so the cross-mode
    comparison stays fair -- and exercises the ack-tree/batching
    composition the mechanisms were designed for.
    """
    scale = mode_scale(mode, n)
    rt, kv, _clients, driver, spec = _build_scaled_kv(
        seed, n, scale, n_keys=txns,
        batch=BatchConfig(enabled=True, max_batch=64, pipeline_depth=4),
    )
    interval = kv.config.im_alive_interval
    rt.run_for(20.0 * interval)  # settle into the initial view

    # Measurement window: fixed virtual duration, identical write count
    # across modes, so per-interval load normalizes fairly.
    rt.network.enable_address_counters()
    t0 = rt.sim.now
    ev0 = rt.sim.events_processed
    wall0 = time.perf_counter()
    jobs = [("write", ("kv", spec.key(index), index)) for index in range(txns)]
    stats = run_closed_loop(
        rt, driver, "clients", jobs, concurrency=4, max_attempts=None
    )
    window_end = t0 + 60.0 * interval
    deadline = rt.sim.now + 100_000.0
    while stats.committed < txns and rt.sim.now < deadline:
        rt.run_for(interval)
    if rt.sim.now < window_end:
        rt.run_for(window_end - rt.sim.now)
    elapsed = rt.sim.now - t0
    wall = time.perf_counter() - wall0
    events = rt.sim.events_processed - ev0
    counters = rt.network.address_counters()
    loads = {}
    for mid, address in kv.configuration:
        loads[mid] = counters["sent"].get(address, 0) + counters[
            "delivered"
        ].get(address, 0)
    primary = kv.active_primary()
    intervals = elapsed / interval
    primary_load = loads[primary.mymid] / intervals
    mean_load = sum(loads.values()) / (len(loads) * intervals)

    # Failover: crash the primary, time until a new view is serving.
    crashed = kv.crash_primary()
    crash_at = rt.sim.now
    failover_deadline = crash_at + 2_000.0 * interval
    while kv.active_primary() is None and rt.sim.now < failover_deadline:
        rt.run_for(interval)
    new_primary = kv.active_primary()
    failover = rt.sim.now - crash_at if new_primary is not None else float("inf")
    kv.recover_cohort(crashed)
    rt.run_for(20.0 * interval)
    rt.quiesce()
    rt.check_invariants(require_convergence=False)
    return {
        "n": n,
        "mode": mode,
        "committed": stats.committed,
        "primary_load": primary_load,
        "mean_load": mean_load,
        "failover": failover,
        "events_per_s": events / wall if wall > 0 else 0.0,
        "formed_view": new_primary is not None,
    }


def e21_cohort_scale(
    seed: int = SCALE_SEED,
    sizes: Tuple[int, ...] = (5, 25, 50, 100),
    txns: int = 24,
) -> ExperimentResult:
    rows = []
    sustained = True
    reductions = {}
    for n in sizes:
        baseline_primary = None
        for mode in E21_MODES:
            cell = _e21_cell(seed, n, mode, txns=txns)
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
            sustained = sustained and cell["formed_view"] and (
                cell["committed"] == txns
            )
            rows.append(
                (
                    n,
                    mode,
                    f"{cell['primary_load']:.1f}",
                    f"{cell['mean_load']:.1f}",
                    f"{reduction:.1f}x",
                    f"{cell['failover']:.0f}",
                    f"{cell['events_per_s'] / 1000.0:.0f}k",
                    cell["committed"],
                )
            )
    largest = max(sizes)
    verdict = (
        "sustained" if sustained else "DEGRADED"
    ) + f"; all-on primary load cut {reductions.get(largest, 1.0):.1f}x at n={largest}"
    return ExperimentResult(
        exp_id="E21",
        title="cohort scaling: gossip heartbeats, ack trees, witness replicas",
        claim=(
            "VR'88 sizes groups at three-to-five cohorts; its all-to-all "
            "heartbeats and primary ack fan-in make the primary an O(n) "
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
            "events/s",
            "committed",
        ),
        rows=rows,
        notes=(
            f"{verdict}.  Loads count sends+deliveries at each cohort "
            "address over a fixed 60-interval window carrying the same "
            f"{txns}-write load per cell; failover is crash-to-new-active-"
            "primary virtual time (gossip trades detection latency for "
            "load; witnesses shrink replication fan-out but not invites); "
            "events/s is wall-clock simulator throughput, so it varies "
            "run to run."
        ),
    )
