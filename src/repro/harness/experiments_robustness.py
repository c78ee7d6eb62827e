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
from repro.harness.common import (
    ExperimentResult,
    build_kv_system,
    committed_share,
    mean_of,
    spawn_prober,
)


def _liveness_run(config: ProtocolConfig, seed: int, duration: float, storm: bool):
    """One arm of the comparison: crash-driven view changes on a LOSSY
    network (plus an optional partition storm), with a write prober
    sampling availability throughout.  Returns the metrics dict for one
    table row."""
    rt, kv, _clients, driver, spec = build_kv_system(
        seed=seed, n_cohorts=3, config=config, link=LOSSY
    )
    nemesis = Nemesis().crash_primary("kv", every=700.0, count=10, recover_after=300.0)
    if storm:
        nemesis.partition_storm(
            [node.node_id for node in kv.nodes()],
            mean_healthy=900.0,
            mean_partitioned=250.0,
        )
    rt.inject(nemesis)
    replies = spawn_prober(
        rt, driver, lambda index: ("write", "kv", spec.key(index), index),
        retries=2, pause=40.0, until=duration,
    )
    rt.run(until=duration)
    rt.faults.stop()
    rt.faults.heal()
    rt.faults.restore_links()
    rt.quiesce(duration=600)
    rt.check_invariants(require_convergence=False)

    durations = rt.ledger.view_change_durations("kv")
    counters = rt.metrics.counters
    return {
        "availability": committed_share(replies),
        "view_changes": len(rt.ledger.view_changes_for("kv")),
        "mean_convergence": (
            sum(durations) / len(durations) if durations else 0.0
        ),
        "max_convergence": max(durations) if durations else 0.0,
        "suspicions": counters.get("detector_suspicions:kv", 0),
        "invite_retransmits": counters.get("invite_retransmits:kv", 0),
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
            rows.append(
                (
                    label,
                    mode,
                    round(mean_of(runs, "availability"), 3),
                    round(mean_of(runs, "mean_convergence"), 1),
                    round(mean_of(runs, "max_convergence"), 1),
                    round(mean_of(runs, "view_changes"), 1),
                    int(mean_of(runs, "suspicions")),
                    int(mean_of(runs, "invite_retransmits")),
                    int(mean_of(runs, "call_retransmits")),
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
            "on the lossy network view changes converge faster (mean; the "
            "worst case too over eight seeds, 61 vs 79, though not on "
            "these two) at no cost in availability.  Under partition "
            "storms adaptive mode retries through the partition, so some "
            "measured outages span the whole blackout; availability there "
            "is the same in both arms: over eight seeds they average "
            "0.82 / 0.83 (0.93 / 0.93 without storms; 0.79 / 0.79 and "
            "0.89 / 0.89 while a lock inherited through a view change "
            "could stay held and fail one of the prober's 16 keys for the "
            "rest of a run: docs/PERF.md, PR 18).  "
            "Convergence is measured by the ledger "
            "from the first view-change trigger to the completed "
            "formation (overlapping attempts count once)."
        ),
    )
