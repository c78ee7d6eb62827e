"""Experiment E16: liveness under lossy networks (repro.detect).

The paper assumes timeouts are "set appropriately" and never revisits
them; this experiment measures what the adaptive detection layer buys on
networks where the fixed settings are wrong in both directions -- too
patient for a fast-but-lossy LAN, too eager during partition storms.
Both arms run the *same* protocol with the *same* seeds; the only delta
is ``ProtocolConfig.adaptive_timeouts``.
"""

from __future__ import annotations

from repro import LOSSY, Nemesis
from repro.config import ProtocolConfig
from repro.harness.common import ExperimentResult, build_kv_system
from repro.sim.process import sleep, spawn


def _liveness_run(
    config: ProtocolConfig,
    seed: int,
    duration: float,
    storm: bool,
    kills: int = 10,
    kill_every: float = 700.0,
    recover_after: float = 300.0,
):
    """One arm of the comparison: crash-driven view changes on a LOSSY
    network (plus an optional partition storm), with a write prober
    sampling availability throughout.  Returns the metrics dict for one
    table row."""
    rt, kv, _clients, driver, spec = build_kv_system(
        seed=seed, n_cohorts=3, config=config, link=LOSSY
    )
    nemesis = Nemesis().crash_primary(
        "kv", every=kill_every, count=kills, recover_after=recover_after
    )
    if storm:
        nemesis.partition_storm(
            [node.node_id for node in kv.nodes()],
            mean_healthy=900.0,
            mean_partitioned=250.0,
        )
    rt.inject(nemesis)
    outcomes = {"ok": 0, "total": 0}

    def prober():
        index = 0
        while rt.sim.now < duration:
            index += 1
            future = driver.call(
                "clients", "write", "kv", spec.key(index % spec.n_keys), index,
                retries=2,
            )
            outcome, _ = yield future
            outcomes["total"] += 1
            if outcome == "committed":
                outcomes["ok"] += 1
            yield sleep(40.0)

    spawn(rt.sim, prober(), name="prober")
    rt.run(until=duration)
    rt.faults.stop()
    rt.faults.heal()
    rt.faults.restore_links()
    rt.quiesce(duration=600)
    rt.check_invariants(require_convergence=False)

    durations = rt.ledger.view_change_durations("kv")
    counters = rt.metrics.counters
    return {
        "availability": outcomes["ok"] / max(outcomes["total"], 1),
        "view_changes": len(rt.ledger.view_changes_for("kv")),
        "mean_convergence": (
            sum(durations) / len(durations) if durations else 0.0
        ),
        "max_convergence": max(durations) if durations else 0.0,
        "suspicions": counters.get("detector_suspicions:kv", 0),
        "invite_retransmits": counters.get("invite_retransmits:kv", 0),
        "backoff_resets": counters.get("backoff_resets:kv", 0),
        "call_retransmits": counters.get("call_retransmits", 0),
    }


def e16_liveness(duration: float = 12_000.0, seeds=(1601, 1602)) -> ExperimentResult:
    rows = []
    scenarios = [("LOSSY", False), ("LOSSY+storm", True)]
    for label, storm in scenarios:
        for mode, config in (
            ("adaptive", ProtocolConfig()),
            ("fixed", ProtocolConfig(adaptive_timeouts=False)),
        ):
            runs = [
                _liveness_run(config, seed=seed, duration=duration, storm=storm)
                for seed in seeds
            ]
            n = len(runs)
            mean = lambda key: sum(run[key] for run in runs) / n  # noqa: E731
            rows.append(
                (
                    label,
                    mode,
                    round(mean("availability"), 3),
                    round(mean("mean_convergence"), 1),
                    round(mean("max_convergence"), 1),
                    round(mean("view_changes"), 1),
                    int(mean("suspicions")),
                    int(mean("invite_retransmits")),
                    int(mean("call_retransmits")),
                )
            )
    return ExperimentResult(
        exp_id="E16",
        title="liveness under lossy networks: adaptive vs fixed detection",
        claim=(
            "Timeouts are beyond the paper: it assumes the configuration "
            "'is known to all' and failures are detected 'by timeout' "
            "without saying how long.  This measures the cost of that "
            "assumption on a lossy network and what per-peer RTT "
            "estimation, accrual suspicion, invite retransmission and "
            "jittered backoff recover."
        ),
        headers=["network", "detection", "availability", "mean conv",
                 "max conv", "view changes", "suspicions",
                 "invite rexmits", "call rexmits"],
        rows=rows,
        notes=(
            "Same seeds, same fault schedule in both arms; the only "
            "difference is ProtocolConfig.adaptive_timeouts.  Adaptive "
            "mode retransmits lost invites mid-round instead of waiting "
            "out the full invite timeout, paces call retries at "
            "RTT-derived intervals inside the unchanged total patience, "
            "and jitters manager promotion so cohorts do not collide -- "
            "on the lossy network view changes converge faster (mean and "
            "worst case) at no cost in availability.  Under partition "
            "storms adaptive mode retries through the partition, so some "
            "measured outages span the whole blackout; availability there "
            "is the same in both arms: over eight seeds they average "
            "0.83 / 0.82 (0.92 / 0.92 without storms; 0.79 / 0.79 and "
            "0.89 / 0.89 while a lock inherited through a view change "
            "could stay held and fail one of the prober's 16 keys for the "
            "rest of a run: docs/PERF.md, PR 18).  "
            "Convergence is measured by the ledger "
            "from the first view-change trigger to the completed "
            "formation (overlapping attempts count once)."
        ),
    )
