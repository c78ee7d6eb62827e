"""Experiments E10-E13: nested transactions, catastrophes, unilateral view
edits, and end-to-end comparison including the Tandem-style pair."""

from __future__ import annotations

import dataclasses

from repro import FaultPlan, Nemesis, Runtime
from repro.app.module import transaction_program
from repro.config import ProtocolConfig
from repro.baselines.pair import PairClient, PairSystem
from repro.faults import FaultRule
from repro.harness.common import (
    ExperimentResult,
    build_kv_system,
    drain,
    kv_jobs,
    paused_chain,
    run_kv_batch,
    run_under_nemesis,
    safety_violations,
)
from repro.net.link import LinkModel
from repro.sim.process import sleep, spawn
from repro.storage.stable import StableStoragePolicy
from repro.workloads.loadgen import run_closed_loop


# ---------------------------------------------------------------------------
# E10: nested transactions avoid top-level aborts (section 3.6)
# ---------------------------------------------------------------------------


@transaction_program(subactions=True)
def _nested_chain(txn, group, keys, pause):
    for key in keys:
        yield txn.call(group, "incr", key, 1)
        yield sleep(pause)
    return len(keys)


@dataclasses.dataclass
class _LoseRepliesThenCrash(FaultRule):
    """Every *every*, cut the link from kv's primary to the client group's
    primary for *mute* -- the calls it runs meanwhile complete, their
    records reach its backups, their replies are lost -- then crash it and
    restore the link.  A caller that follows the new primary with the same
    call id finds that record there, and the call fails (DESIGN.md D7)."""

    every: float
    count: int
    mute: float
    recover_after: float
    label = "lose-replies-then-crash"

    def run(self, controller):
        groups = controller.runtime.groups
        for _ in range(self.count):
            yield sleep(self.every - self.mute)
            server, client = groups["kv"].active_primary(), groups["clients"].active_primary()
            if server is None or client is None:
                continue
            ends = (server.node.node_id, client.node.node_id)
            controller.fail_link_oneway(*ends)
            yield sleep(self.mute)
            if controller.crash(ends[0]):
                controller.recover_later(ends[0], self.recover_after)
            controller.repair_link_oneway(*ends)


def _nested_run(
    program_name: str, seed: int, txns: int = 80, kills: int = 10,
    lose_replies: bool = False,
):
    rt, kv, clients, driver, spec = build_kv_system(seed=seed, n_cohorts=3, n_keys=64)
    clients.register_program("flat", paused_chain)
    clients.register_program("nested", _nested_chain)
    # Disjoint key quadruples: no lock contention, so every abort is
    # failure-induced.  Pauses keep transactions in flight across kills.
    jobs = [
        (
            program_name,
            ("kv", [spec.key(4 * j + i) for i in range(4)], 15.0),
        )
        for j in range(txns)
    ]
    if lose_replies:
        nemesis = Nemesis().add(
            _LoseRepliesThenCrash(every=300.0, count=kills, mute=20.0, recover_after=140.0)
        )
    else:
        nemesis = Nemesis().crash_primary("kv", every=300.0, count=kills, recover_after=140.0)
    stats = run_under_nemesis(rt, driver, jobs, nemesis, concurrency=4)
    return (
        stats.committed,
        stats.aborted,
        round(stats.abort_rate, 3),
        rt.metrics.counters.get("subaction_retries:clients", 0),
        len(rt.ledger.view_changes_for("kv")),
    )


def e10_nested() -> ExperimentResult:
    rows = [
        ("flat, crash",) + _nested_run("flat", seed=1010),
        ("nested, crash",) + _nested_run("nested", seed=1010),
        ("flat, reply lost then crash",) + _nested_run("flat", seed=1010, lose_replies=True),
        ("nested, reply lost then crash",) + _nested_run("nested", seed=1010, lose_replies=True),
    ]
    return ExperimentResult(
        exp_id="E10",
        title="nested transactions: call retry instead of top-level abort",
        claim=(
            "Nested transactions prevent the abort of the top level "
            "transaction ... we can abort just the subaction, and then do "
            "the call again as a new subaction.  We do extra work only when "
            "the problem arises (section 3.6)"
        ),
        headers=["mode", "committed", "aborted", "abort rate",
                 "subaction retries", "view changes"],
        rows=rows,
        notes=(
            "A call in flight at a primary crash follows the new primary "
            "with the same call id and completes there (DESIGN.md D7), so a "
            "plain crash aborts a transaction, flat or nested, only when a "
            "call it had finished left no record at the backups: the new "
            "primary refuses its prepare (pset incompatible with history).  "
            "When "
            "the reply was lost but the call's completed-call record reached "
            "the backups, the new primary fails that id: a flat transaction "
            "must abort, while a nested one aborts only the subaction and "
            "calls again as a fresh one.  Retries only occur when a view "
            "actually changed."
        ),
    )


# ---------------------------------------------------------------------------
# E11: catastrophes (section 4.2)
# ---------------------------------------------------------------------------


def _catastrophe_run(policy: StableStoragePolicy, seed: int):
    config = ProtocolConfig(storage_policy=policy)
    rt, kv, clients, driver, spec = build_kv_system(seed=seed, n_cohorts=3,
                                                    config=config)
    stats = run_kv_batch(rt, driver, spec, 20, read_fraction=0.0)
    rt.quiesce()
    committed_before = stats.committed
    value_before = kv.read_object(spec.key(1))
    # Simultaneous crash of a majority (primary + one backup), losing
    # volatile state; both recover shortly after.
    primary = kv.active_primary()
    victims = [kv.cohort(mid) for mid in (primary.mymid, (primary.mymid + 1) % 3)]
    catastrophe = FaultPlan()
    for victim in victims:
        catastrophe.at(0.0).crash(victim.node.node_id)
    for victim in victims:
        catastrophe.at(100.0).recover(victim.node.node_id)
    rt.inject(catastrophe)
    rt.run_for(4100)
    if kv.active_primary() is None:
        outcome, intact = "stalled (by design)", "-"
    else:
        outcome = "recovered"
        intact = "yes" if kv.read_object(spec.key(1)) == value_before else "NO"
    return committed_before, outcome, intact, safety_violations(rt)


def e11_catastrophe() -> ExperimentResult:
    rows = [
        (label,) + _catastrophe_run(policy, seed=1111)
        for policy, label in (
            (StableStoragePolicy.MINIMAL, "volatile (paper default)"),
            (StableStoragePolicy.ALL, "UPS/NVRAM gstate (section 4.2 hardening)"),
        )
    ]
    return ExperimentResult(
        exp_id="E11",
        title="catastrophe: simultaneous crash of a majority",
        claim=(
            "If a majority of cohorts are crashed 'simultaneously', we may "
            "lose information about the module group's state ... a "
            "catastrophe does not cause a group to enter a new view missing "
            "some needed information.  Rather, it causes the algorithm to "
            "never again form a new view (section 4.2)"
        ),
        headers=["storage policy", "committed before", "outcome",
                 "state intact", "safety violations"],
        rows=rows,
        notes=(
            "With volatile state the view formation rule (crashed "
            "acceptances vs normal viewstamps) can never be satisfied, so "
            "the group stalls rather than serving stale state; persisting "
            "gstate to UPS-backed storage (the paper's suggested hardening) "
            "lets the same scenario recover with all committed state intact."
        ),
    )


# ---------------------------------------------------------------------------
# E12: unilateral backup exclusion/addition (section 4.1)
# ---------------------------------------------------------------------------


def _unilateral_run(enabled: bool, seed: int, txns: int = 200):
    config = ProtocolConfig(unilateral_edits=enabled)
    rt, kv, clients, driver, spec = build_kv_system(seed=seed, n_cohorts=3,
                                                    config=config)
    # Repeated asymmetric outages: one backup's uplink goes silent for a
    # stretch (its heartbeats and acks are lost; it still hears the
    # primary, so it never secedes), then heals.  The primary must
    # either edit its view (unilateral) or run a full view change.
    dead_uplink = LinkModel(base_delay=1.0, jitter=0.2, loss_probability=0.9999)
    stats = run_under_nemesis(
        rt, driver, kv_jobs(rt, spec, txns, read_fraction=0.2),
        Nemesis().mute_backup_uplinks(
            "kv", every=400.0, duration=120.0, rounds=5, link=dead_uplink
        ),
        concurrency=2, think_time=10.0,
    )
    return (
        stats.committed,
        stats.aborted,
        len(rt.ledger.view_changes_for("kv")),
        rt.metrics.counters.get("unilateral_view_edits", 0),
        round(stats.mean_latency, 1),
    )


def e12_unilateral() -> ExperimentResult:
    rows = [
        ("full view changes",) + _unilateral_run(False, seed=1212),
        ("unilateral edits",) + _unilateral_run(True, seed=1212),
    ]
    return ExperimentResult(
        exp_id="E12",
        title="unilateral backup exclusion/addition vs full view changes",
        claim=(
            "Not all view changes described above really need to be done ... "
            "the primary can unilaterally exclude the inaccessible backup "
            "from the view.  Similarly, an active primary can unilaterally "
            "add a backup to its view.  View changes are really needed only "
            "when the primary is lost (section 4.1)"
        ),
        headers=["policy", "committed", "aborted", "view changes",
                 "unilateral edits", "txn latency"],
        rows=rows,
        notes=(
            "Backup churn with unilateral edits enabled is absorbed by the "
            "primary editing its view membership (cheap records through the "
            "buffer) instead of running the full invitation protocol."
        ),
    )


# ---------------------------------------------------------------------------
# E13: end-to-end comparison incl. the Tandem-style pair (sections 5, 6)
# ---------------------------------------------------------------------------


def _pair_run(ops: int, seed: int, failures: int):
    rt = Runtime(seed=seed)
    system = PairSystem(rt, "pair", {"key": 0})
    client = PairClient(rt.create_node("pc-node"), rt, "pc", system, op_timeout=30.0)
    results = {"ok": 0}

    def run_ops():
        for index in range(ops):
            try:
                yield client.add("key", 1)
                results["ok"] += 1
            except RuntimeError:
                pass
            if index == ops // 3 and failures >= 1:
                rt.faults.crash(system.primary.node.node_id)
                yield sleep(60.0)
            if index == (2 * ops) // 3 and failures >= 2:
                rt.faults.crash(system.backup.node.node_id)
                yield sleep(60.0)

    spawn(rt.sim, run_ops(), name="pair-ops")
    rt.run_for(60_000)
    return results["ok"]


def _vr_survival_run(n: int, ops: int, seed: int, failures: int):
    rt, kv, _clients, driver, spec = build_kv_system(seed=seed, n_cohorts=n)
    jobs = kv_jobs(rt, spec, ops, read_fraction=0.0)
    stats = run_closed_loop(rt, driver, "clients", jobs, concurrency=1,
                            think_time=10.0)
    nemesis = Nemesis()
    if failures >= 1:
        nemesis.crash_primary("kv", every=150.0, count=1)
    if failures >= 2:
        nemesis.crash_primary("kv", every=450.0, count=1)
    if nemesis.rules:
        rt.inject(nemesis)
    drain(rt, stats, ops, max_time=15_000)
    return stats.committed


def e13_end_to_end(ops: int = 60) -> ExperimentResult:
    rows = []
    for failures in (0, 1, 2):
        rows.append(
            (
                failures,
                f"{_vr_survival_run(3, ops, seed=1313, failures=failures)}/{ops}",
                f"{_vr_survival_run(5, ops, seed=1313, failures=failures)}/{ops}",
                f"{_pair_run(ops, seed=1314, failures=failures)}/{ops}",
            )
        )
    return ExperimentResult(
        exp_id="E13",
        title="operations completed vs number of failures",
        claim=(
            "Tandem's Nonstop system ... can survive only a single failure. "
            "... Ours is more general (section 5); the method performs well "
            "in the normal case and does view changes efficiently (section 6)"
        ),
        headers=["failures injected", "vr n=3 completed", "vr n=5 completed",
                 "pair completed"],
        rows=rows,
        notes=(
            "A 3-cohort viewstamped group rides out one failure but stalls "
            "at two simultaneous ones (no majority) until recovery; a "
            "5-cohort group rides out two; the pair survives the first "
            "failure and dies at the second."
        ),
    )
