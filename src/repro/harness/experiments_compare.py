"""Experiments E5-E9: comparisons against voting, virtual partitions
(abort rule), Isis, and safety under partitions."""

from __future__ import annotations

from repro import EmptyModule, Nemesis, Runtime
from repro.app.module import transaction_program
from repro.baselines.isis_like import IsisClient, IsisSystem
from repro.baselines.voting import VotingClient, VotingSystem
from repro.config import ProtocolConfig
from repro.harness.common import (
    BUFFER_MSGS,
    CALL_MSGS,
    TWOPC_MSGS,
    ExperimentResult,
    build_kv_system,
    committed_share,
    drain,
    paused_chain,
    run_under_nemesis,
    run_until,
    safety_violations,
    spawn_prober,
)
from repro.sim.process import sleep, spawn
from repro.storage.stable import StableStoragePolicy
from repro.workloads.bank import BankAccountsSpec, total_balance, transfer_program
from repro.workloads.loadgen import run_closed_loop


# ---------------------------------------------------------------------------
# E5: messages per operation vs voting (section 5)
# ---------------------------------------------------------------------------

_VOTE_MSGS = (
    "VoteReadReq",
    "VoteReadReply",
    "VoteLockReq",
    "VoteLockReply",
    "VoteWriteReq",
    "VoteWriteReply",
    "VoteUnlockReq",
)


def _voting_run(n: int, r: int, w: int, ops: int, read_fraction: float, seed: int):
    rt = Runtime(seed=seed)
    system = VotingSystem(rt, "vote", n, {f"key{i}": 0 for i in range(16)})
    client = VotingClient(
        rt.create_node("vc-node"), rt, "vc", system, read_quorum=r, write_quorum=w
    )
    rng = rt.sim.rng.fork("ops")
    results = {"done": 0}

    def run_ops():
        for index in range(ops):
            key = f"key{rng.randint(0, 15)}"
            if rng.random() < read_fraction:
                yield client.read(key)
            else:
                yield client.write(key, index)
            results["done"] += 1

    spawn(rt.sim, run_ops(), name="voting-ops")
    run_until(rt, lambda: results["done"] >= ops)
    return rt.metrics.total_sent(_VOTE_MSGS) / max(results["done"], 1)


@transaction_program
def _mixed_chain(txn, group, items):
    result = None
    for kind, key, value in items:
        if kind == "read":
            result = yield txn.call(group, "get", key)
        else:
            result = yield txn.call(group, "put", key, value)
    return result


def e05_vs_voting(ops: int = 80, ops_per_txn: int = 8) -> ExperimentResult:
    rows = []
    for read_fraction in (0.0, 0.5, 0.9, 1.0):
        # Viewstamped replication: transactions of ops_per_txn calls, as in
        # the paper's computation model; count call traffic plus replication
        # and commit traffic, all amortized per operation.
        rt, _kv, clients, driver, spec = build_kv_system(seed=505, n_cohorts=3)
        clients.register_program("mixed", _mixed_chain)
        rng = rt.sim.rng.fork("mix")
        n_txns = max(1, ops // ops_per_txn)
        jobs = []
        for t in range(n_txns):
            items = []
            for i in range(ops_per_txn):
                key = spec.key(rng.randint(0, spec.n_keys - 1))
                if rng.random() < read_fraction:
                    items.append(("read", key, 0))
                else:
                    items.append(("write", key, i))
            jobs.append(("mixed", ("kv", items)))
        stats = run_closed_loop(rt, driver, "clients", jobs, concurrency=1)
        drain(rt, stats, n_txns)
        rt.quiesce()
        calls = rt.metrics.counters.get("calls_completed:kv", 0)
        vr_total = rt.metrics.total_sent(CALL_MSGS + BUFFER_MSGS + TWOPC_MSGS)
        vr_sync = rt.metrics.total_sent(CALL_MSGS)
        rawa = _voting_run(3, 1, 3, ops, read_fraction, seed=506)  # read-one/write-all
        maj = _voting_run(3, 2, 2, ops, read_fraction, seed=507)  # majorities
        rows.append(
            (
                f"{int(read_fraction * 100)}%",
                round(vr_sync / max(calls, 1), 2),
                round(vr_total / max(calls, 1), 2),
                round(rawa, 2),
                round(maj, 2),
            )
        )
    return ExperimentResult(
        exp_id="E5",
        title="messages per operation: viewstamped replication vs voting",
        claim=(
            "Our method is faster than voting for write operations since we "
            "require fewer messages.  Our method will also be faster for "
            "read operations if these take place at several cohorts (section 5)"
        ),
        headers=["read mix", "vr sync msgs/op", "vr total msgs/op",
                 "voting RAWA msgs/op", "voting majority msgs/op"],
        rows=rows,
        notes=(
            "VR's synchronous path is 2 messages per operation regardless of "
            "mix; replication and commit traffic amortize to a couple more.  "
            "Voting writes cost two rounds at the write quorum; voting "
            "read-one beats VR's total only in the pure-read column, and "
            "reads at several cohorts (majority voting) always cost more -- "
            "exactly the paper's trade-off."
        ),
    )


# ---------------------------------------------------------------------------
# E6: availability under crash/recover churn (section 5)
# ---------------------------------------------------------------------------


def _vr_availability(n: int, mttf: float, mttr: float, duration: float, seed: int,
                     config: ProtocolConfig | None = None):
    rt, kv, _clients, driver, spec = build_kv_system(seed=seed, n_cohorts=n, config=config)
    rt.inject(
        Nemesis().crash_churn(
            [node.node_id for node in kv.nodes()], mttf=mttf, mttr=mttr
        )
    )
    replies = spawn_prober(
        rt, driver, lambda index: ("write", "kv", spec.key(index), index),
        retries=2, pause=40.0, until=duration,
    )
    rt.run(until=duration + 500)
    rt.faults.stop()
    return committed_share(replies)


def _voting_availability(n: int, r: int, w: int, mttf: float, mttr: float,
                         duration: float, seed: int):
    rt = Runtime(seed=seed)
    system = VotingSystem(rt, "vote", n, {"probe": 0})
    client = VotingClient(
        rt.create_node("vc-node"), rt, "vc", system, read_quorum=r, write_quorum=w,
        op_timeout=20.0,
    )
    rt.inject(
        Nemesis().crash_churn(
            [replica.node.node_id for replica in system.replicas],
            mttf=mttf,
            mttr=mttr,
        )
    )
    outcomes = {"ok": 0, "total": 0}

    def prober():
        index = 0
        while rt.sim.now < duration:
            index += 1
            outcomes["total"] += 1
            try:
                yield client.write("probe", index)
                outcomes["ok"] += 1
            except RuntimeError:
                pass
            yield sleep(40.0)

    spawn(rt.sim, prober(), name="prober")
    rt.run(until=duration + 500)
    rt.faults.stop()
    return outcomes["ok"] / max(outcomes["total"], 1)


def e06_availability(duration: float = 20_000.0) -> ExperimentResult:
    ups = ProtocolConfig(storage_policy=StableStoragePolicy.ALL)
    rows = []
    for mttf, mttr in ((2000.0, 400.0), (1000.0, 400.0), (500.0, 300.0)):
        shares = (
            _vr_availability(3, mttf, mttr, duration, seed=606),  # volatile
            _vr_availability(3, mttf, mttr, duration, seed=606, config=ups),
            _vr_availability(5, mttf, mttr, duration, seed=606, config=ups),
            _voting_availability(3, 2, 2, mttf, mttr, duration, seed=607),  # majority
            _voting_availability(3, 1, 3, mttf, mttr, duration, seed=607),  # write-all
        )
        rows.append(
            (f"{int(mttf)}/{int(mttr)}",) + tuple(round(share, 3) for share in shares)
        )
    return ExperimentResult(
        exp_id="E6",
        title="write availability under crash/recover churn",
        claim=(
            "When writes must happen at all cohorts, the loss of a single "
            "cohort can cause writes to become unavailable (section 5); a "
            "view containing a majority suffices for viewstamped replication "
            "(section 4).  Whether it is worthwhile to worry about "
            "catastrophes depends on the likelihood of occurrence "
            "(section 4.2)"
        ),
        headers=["mttf/mttr", "vr n=3 volatile", "vr n=3 UPS", "vr n=5 UPS",
                 "voting majority", "voting write-all"],
        rows=rows,
        notes=(
            "Write-all voting loses availability with any single crash; "
            "majority schemes only lose writes when half the group is down "
            "at once.  The volatile-state VR column shows the section-4.2 "
            "catastrophe exposure at these (aggressive) crash rates: one "
            "overlapping double-crash permanently stalls the group, which "
            "the UPS/NVRAM hardening eliminates -- voting replicas were "
            "assumed stable all along, so the hardened columns are the "
            "like-for-like comparison."
        ),
    )


# ---------------------------------------------------------------------------
# E7: information loss across view changes (sections 4.1, 6 + section 5 ablation)
# ---------------------------------------------------------------------------


def _viewchange_loss_run(config: ProtocolConfig, label: str, seed: int,
                         txns: int = 120, kills: int = 8):
    rt, kv, clients, driver, spec = build_kv_system(seed=seed, n_cohorts=3,
                                                    n_keys=48, config=config)
    clients.register_program("slow_chain", paused_chain)
    # Disjoint key triples so concurrent transactions never contend on
    # locks: the only aborts left are view-change-induced, which is the
    # quantity under test.
    jobs = [
        (
            "slow_chain",
            ("kv", [spec.key(3 * j), spec.key(3 * j + 1), spec.key(3 * j + 2)], 25.0),
        )
        for j in range(txns)
    ]
    stats = run_under_nemesis(
        rt, driver, jobs,
        Nemesis().crash_primary("kv", every=450.0, count=kills, recover_after=220.0),
        concurrency=4,
    )
    calls = rt.metrics.latencies["call_latency:kv"]
    reasons = rt.ledger.abort_reasons()
    refused = sum(n for reason, n in reasons.items() if "refused" in reason)
    no_reply = sum(n for reason, n in reasons.items() if "no reply" in reason)
    return (
        label,
        stats.committed,
        round(stats.abort_rate, 3),
        refused,
        no_reply,
        round(calls.mean, 2),
        round(calls.p50, 2),
        len(rt.ledger.view_changes_for("kv")),
    )


def e07_viewchange_loss() -> ExperimentResult:
    rows = [
        _viewchange_loss_run(ProtocolConfig(), "vr (viewstamps)", seed=707),
        _viewchange_loss_run(
            ProtocolConfig(viewstamp_checks=False),
            "abort-all (virtual partitions rule)",
            seed=707,
        ),
        _viewchange_loss_run(
            ProtocolConfig(force_on_call=True), "force-on-call ablation", seed=707
        ),
    ]
    return ExperimentResult(
        exp_id="E7",
        title="transaction loss across view changes",
        claim=(
            "Little information is lost in a reorganization; we use "
            "viewstamps to avoid the abort (sections 1, 5).  If completed-"
            "call records were forced to the backups before the call "
            "returned, there would be no aborts due to view changes, but "
            "calls would be processed more slowly (section 6)"
        ),
        headers=["policy", "committed", "abort rate", "prepare refusals",
                 "no-reply aborts", "call latency", "call p50", "view changes"],
        rows=rows,
        notes=(
            "Prepare refusals are the view-change information loss the paper "
            "targets: viewstamps keep them near zero (only calls that "
            "genuinely missed the sub-majority), the virtual-partitions rule "
            "refuses every transaction spanning a view change, and forcing "
            "on every call eliminates refusals entirely at ~2x the median "
            "call latency.  A call in flight at a primary crash asks the "
            "group who leads and follows the new primary with the same call "
            "id (DESIGN.md D7), so no policy has a no-reply abort; the mean "
            "call latency includes those calls' wait for the new view."
        ),
    )


# ---------------------------------------------------------------------------
# E8: safety under partitions (sections 1, 4.1)
# ---------------------------------------------------------------------------


def e08_safety_partitions(seeds=(1, 2, 3, 4, 5)) -> ExperimentResult:
    rows = []
    for seed in seeds:
        rt = Runtime(seed=seed)
        spec = BankAccountsSpec(n_accounts=6, opening_balance=100)
        bank = rt.create_group("bank", spec, n_cohorts=3)
        clients = rt.create_group("clients", EmptyModule(), n_cohorts=3)
        clients.register_program("transfer", transfer_program)
        driver = rt.create_driver("driver")
        rng = rt.sim.rng.fork("jobs")
        jobs = [
            (
                "transfer",
                (
                    "bank",
                    spec.account(rng.randint(0, 5)),
                    spec.account(rng.randint(0, 5)),
                    rng.randint(1, 10),
                ),
            )
            for _ in range(80)
        ]
        stats = run_closed_loop(rt, driver, "clients", jobs, concurrency=3)
        node_ids = [node.node_id for node in bank.nodes()]
        rt.inject(
            Nemesis().partition_storm(
                node_ids, mean_healthy=600.0, mean_partitioned=400.0
            )
        )
        drain(rt, stats, 80, max_time=60_000)
        rt.faults.stop()
        rt.faults.heal()
        rt.quiesce(duration=600)
        conserved = total_balance(bank, spec) == 600
        rows.append(
            (
                seed,
                stats.committed,
                stats.aborted,
                rt.faults.count("partition"),
                len(rt.ledger.view_changes_for("bank")),
                "yes" if conserved else "NO",
                safety_violations(rt),
            )
        )
    return ExperimentResult(
        exp_id="E8",
        title="safety under partitions (no split brain, 1SR holds)",
        claim=(
            "The system performs correctly even if there are several active "
            "primaries ... the old primary will not be able to prepare and "
            "commit user transactions, since it cannot force their effects "
            "to the backups (section 4.1); one-copy serializability (section 1)"
        ),
        headers=["seed", "committed", "aborted", "partitions", "view changes",
                 "money conserved", "1SR violations"],
        rows=rows,
        notes=(
            "Across seeded partition storms, every committed history is "
            "one-copy serializable and the bank's total balance is exactly "
            "conserved -- stale primaries are fenced by the force-to-"
            "sub-majority rule."
        ),
    )


# ---------------------------------------------------------------------------
# E9: bytes on the wire vs Isis piggybacking (section 5)
# ---------------------------------------------------------------------------


def e09_vs_isis(txn_counts=(1, 5, 10, 20, 40), ops_per_txn: int = 4) -> ExperimentResult:
    """Per-message bytes over a *sequence* of committed transactions.

    Psets are per-transaction and discarded at commit, so VR's message size
    is flat across the sequence; the Isis client's piggybacked effect set
    only ever grows.
    """
    _VR_TYPES = ("CallMsg", "ReplyMsg", "PrepareMsg", "CommitMsg", "CommitAckMsg",
                 "PrepareOkMsg")
    _ISIS_TYPES = ("IsisCallReq", "IsisCallReply", "IsisWriteLockReq",
                   "IsisWriteLockReply", "IsisBackgroundEffects")

    rows = []
    for n_txns in txn_counts:
        # Viewstamped replication: n_txns transactions of ops_per_txn calls;
        # measure bytes/message in the *last* transaction of the sequence.
        rt, _kv, clients, driver, spec = build_kv_system(seed=909, n_cohorts=3)

        @transaction_program
        def chain_program(txn, group, count, base):
            for index in range(count):
                yield txn.call(group, "incr", spec.key(base + index), 1)
            return count

        clients.register_program("chain", chain_program)
        jobs = [("chain", ("kv", ops_per_txn, t)) for t in range(n_txns)]
        stats = run_closed_loop(rt, driver, "clients", jobs[:-1], concurrency=1)
        drain(rt, stats, n_txns - 1)
        before_bytes = rt.metrics.total_bytes(_VR_TYPES)
        before_count = rt.metrics.total_sent(_VR_TYPES)
        last = run_closed_loop(rt, driver, "clients", [jobs[-1]], concurrency=1)
        drain(rt, last, 1)
        rt.quiesce()
        vr_bytes = rt.metrics.total_bytes(_VR_TYPES) - before_bytes
        vr_count = rt.metrics.total_sent(_VR_TYPES) - before_count

        # Isis-like: the same total operation sequence; measure the last
        # ops_per_txn operations' bytes/message and the carried payload.
        rt2 = Runtime(seed=910)
        system = IsisSystem(rt2, "isis", 3, {spec.key(i): 0 for i in range(16)})
        client = IsisClient(rt2.create_node("ic-node"), rt2, "ic", system)
        total_ops = n_txns * ops_per_txn
        done = {"count": 0}
        marks = {}

        def run_ops():
            for index in range(total_ops):
                if index == total_ops - ops_per_txn:
                    marks["bytes"] = rt2.metrics.total_bytes(_ISIS_TYPES)
                    marks["count"] = rt2.metrics.total_sent(_ISIS_TYPES)
                yield client.add(spec.key(index % 16), 1)
                done["count"] += 1

        spawn(rt2.sim, run_ops(), name="isis-ops")
        run_until(rt2, lambda: done["count"] >= total_ops, step=200)
        isis_bytes = rt2.metrics.total_bytes(_ISIS_TYPES) - marks.get("bytes", 0)
        isis_count = rt2.metrics.total_sent(_ISIS_TYPES) - marks.get("count", 0)
        rows.append(
            (
                n_txns,
                round(vr_bytes / max(vr_count, 1), 1),
                round(isis_bytes / max(isis_count, 1), 1),
                client.carried_bytes,
            )
        )
    return ExperimentResult(
        exp_id="E9",
        title="bytes per message over a transaction sequence: psets vs Isis",
        claim=(
            "A disadvantage of Isis is the large amount of extra information "
            "flowing on every message, and the difficulty in garbage "
            "collecting that information.  Unlike our pset, piggybacked "
            "information in Isis cannot be discarded when transactions "
            "commit (section 5)"
        ),
        headers=["txns so far", "vr bytes/msg (last txn)",
                 "isis bytes/msg (last txn)", "isis carried bytes (never GC'd)"],
        rows=rows,
        notes=(
            "Both columns measure the final transaction of the sequence.  "
            "VR's per-message size is flat: the pset names only the current "
            "transaction's events and is discarded at commit.  The Isis "
            "client's carried payload grows with every operation it has "
            "ever performed and rides on every subsequent message."
        ),
    )
