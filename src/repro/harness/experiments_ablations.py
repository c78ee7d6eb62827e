"""Experiment E15: ablations of the engineering knobs the paper calls out.

Section 4.1 gives two pieces of tuning advice with consequences we can
measure:

- "the algorithm is not tolerant of lost messages and slow responses ...
  a manager should use a fairly long timeout while it waits" -- and
  several simultaneous managers "will slow things down, since there will
  be more message traffic ... we can avoid concurrent managers to some
  extent by [ordering] the cohorts" -- the ``ordered_managers`` knob;
- failure-detection aggressiveness (our ``suspect_multiplier``) trades
  detection latency against spurious view changes under jitter.
"""

from __future__ import annotations

from repro import Nemesis
from repro.config import ProtocolConfig
from repro.harness.common import (
    VIEWCHANGE_MSGS,
    ExperimentResult,
    build_kv_system,
    kv_jobs,
    run_under_nemesis,
)
from repro.net.link import LinkModel


def _ablation_run(label: str, config: ProtocolConfig, seed: int, txns: int = 80,
                  kills: int = 4):
    rt, kv, clients, driver, spec = build_kv_system(
        seed=seed, n_cohorts=5, config=config,
        link=LinkModel(base_delay=1.0, jitter=1.5),  # tempts false suspicion
    )
    stats = run_under_nemesis(
        rt, driver, kv_jobs(rt, spec, txns, read_fraction=0.3),
        Nemesis().crash_primary("kv", every=500.0, count=kills, recover_after=240.0),
        concurrency=2, think_time=10.0,
    )
    return (
        label,
        stats.committed,
        len(rt.ledger.view_changes_for("kv")),
        rt.metrics.counters.get("view_changes_started:kv", 0),
        rt.metrics.counters.get("view_formations_failed:kv", 0),
        rt.metrics.total_sent(VIEWCHANGE_MSGS),
    )


def e15_ablations() -> ExperimentResult:
    rows = [
        # -- ordered vs free-for-all managers --
        _ablation_run(
            f"managers {'ordered' if ordered else 'free-for-all'}",
            ProtocolConfig(ordered_managers=ordered),
            seed=1515,
        )
        for ordered in (True, False)
    ] + [
        # -- failure-detector aggressiveness --
        _ablation_run(
            f"suspect x{multiplier}",
            ProtocolConfig(suspect_multiplier=multiplier),
            seed=1516,
        )
        for multiplier in (1.5, 3.5, 8.0)
    ]
    return ExperimentResult(
        exp_id="E15",
        title="ablations: manager ordering and failure-detector tuning",
        claim=(
            "Having several managers will slow things down, since there will "
            "be more message traffic ... the cohorts could be ordered, and a "
            "cohort would become a manager only if all higher-priority "
            "cohorts appear to be inaccessible (section 4.1); managers and "
            "underlings should use fairly long timeouts"
        ),
        headers=["variant", "committed", "views formed", "changes started",
                 "formations failed", "view-change msgs"],
        rows=rows,
        notes=(
            "Free-for-all managers start more concurrent rounds and send "
            "more invitation traffic for the same number of useful view "
            "changes.  An over-aggressive failure detector (low suspect "
            "multiplier) triggers spurious view changes under jitter; an "
            "over-conservative one pays in detection latency after a real "
            "crash (fewer transactions complete in the same horizon)."
        ),
    )
