"""Experiments E17/E18: scale-out by sharding, and batched replication.

The paper's transaction machinery is already multi-group (section 3.3:
psets name every participant group, prepares validate each group's own
viewstamps, the commit point covers them all), so a partitioned key space
over N replica groups needs no new protocol -- only routing.  This
experiment measures what that buys: committed-calls/s as the shard count
grows 1 -> 8 under a fixed per-shard load, on a clean LAN, on a lossy
network, and through a single-shard view change -- where the paper's
per-participant viewstamp validation should abort *only* the
transactions that touched the crashed shard.
"""

from __future__ import annotations

import gc

from repro import LOSSY, Nemesis, ProtocolConfig
from repro.gate import state_run
from repro.harness.common import (
    E18_CONFIGS,
    ExperimentResult,
    batch_config,
    build_kv_system,
    mean_of,
)
from repro.live import one_crash
from repro.shard.workload import run_sharded_workload

SHARD_COUNTS = (1, 2, 4, 8)
CONDITIONS = ("clean", "lossy", "viewchange")


def _sharded_run(seed: int, n_shards: int, condition: str):
    """One cell of the scale-out study (weak scaling: 40 transactions and 4
    closed-loop clients per shard); returns the metrics dict."""
    link = LOSSY if condition == "lossy" else None
    nemesis = None
    if condition == "viewchange":
        # Crash shard 0's primary shortly after the load starts (the
        # workload settles for 100 time units first); every other shard
        # and the router group keep their views.
        nemesis = Nemesis().crash_shard_primary(
            "kv", 0, every=180.0, count=1, recover_after=400.0
        )
    runtime, sharded, stats = run_sharded_workload(
        seed=seed,
        n_shards=n_shards,
        txns=40 * n_shards,
        concurrency=4 * n_shards,
        link=link,
        nemesis=nemesis,
        duration=30_000.0,
    )
    if nemesis is not None:
        runtime.faults.stop()
    runtime.quiesce(duration=600)
    runtime.check_invariants(require_convergence=False)
    shard0 = sharded.shard_groupid(0)
    aborted = [
        sharded.touched_shards(program, args)
        for program, args, outcome in stats.results
        if outcome == "aborted"
    ]
    return {
        "committed": stats.committed,
        "aborted": stats.aborted,
        "abort_rate": stats.abort_rate if stats.submitted else 0.0,
        "throughput": stats.throughput,
        "aborts_shard0": sum(shard0 in shards for shards in aborted),
        "aborts_elsewhere": sum(shard0 not in shards for shards in aborted),
    }


def e17_sharding(seeds=(1701, 1702)) -> ExperimentResult:
    rows = []
    for condition in CONDITIONS:
        base_throughput = None
        for n_shards in SHARD_COUNTS:
            runs = [_sharded_run(seed, n_shards, condition) for seed in seeds]
            gc.collect()  # 24 cells: free each one's dead Runtime as it dies
            throughput = mean_of(runs, "throughput")
            if base_throughput is None:
                base_throughput = throughput
            rows.append(
                (
                    condition,
                    n_shards,
                    int(mean_of(runs, "committed")),
                    int(mean_of(runs, "aborted")),
                    round(mean_of(runs, "abort_rate"), 3),
                    round(throughput, 4),
                    round(throughput / base_throughput, 2)
                    if base_throughput
                    else float("nan"),
                    int(mean_of(runs, "aborts_shard0")),
                    int(mean_of(runs, "aborts_elsewhere")),
                )
            )
    return ExperimentResult(
        exp_id="E17",
        title="scale-out: a partitioned key space over many replica groups",
        claim=(
            "Section 3.3 makes the transaction machinery multi-group: "
            "every participant group appears in the pset, validates its "
            "own viewstamps at prepare, and is covered by one commit "
            "point.  Sharding a key space over N groups should therefore "
            "scale committed-calls/s with N under per-shard load, and a "
            "view change in one shard should abort only the transactions "
            "whose pset names that shard."
        ),
        headers=[
            "condition",
            "shards",
            "committed",
            "aborted",
            "abort rate",
            "committed/s",
            "speedup",
            "aborts@shard0",
            "aborts elsewhere",
        ],
        rows=rows,
        notes=(
            "Weak scaling: 40 transactions and 4 closed-loop clients per "
            "shard (75% single-key seq_puts serialized per shard by a "
            "sequence lock held across the 2PC, 25% cross-shard "
            "transfers).  'aborts@shard0' counts aborted transactions "
            "whose key set touched shard 0 -- the shard whose primary the "
            "viewchange condition crashes at t=180 -- and 'aborts "
            "elsewhere' those that touched no shard-0 key.  A call in "
            "flight at the crash follows shard 0's new primary with the "
            "same call id (DESIGN.md D7), so the viewchange rows abort "
            "nothing; a crashed shard invalidates only psets naming it "
            "(tests/shard/test_viewchange_isolation.py constructs that "
            "loss).  The lossy condition reruns the same seeds on the LOSSY "
            "link model: retransmissions recover, some cross-shard 2PCs "
            "abort, and an abort elsewhere is lock-wait collateral (a lock "
            "wait on a contended key cancelled), not a viewstamp "
            "invalidation."
        ),
    )


# -- E18: batched & pipelined replication -----------------------------------

E18_CONDITIONS = ("clean", "lossy", "viewchange")


def batching_run(
    seed: int,
    condition: str,
    batch,
    txns: int,
    concurrency: int,
):
    """One cell of the batching study -- the identity gate's cell
    (:func:`repro.gate.state_run`) on a clean or lossy network or with the
    kv primary crashing at t=150; returns (metrics dict, state digest)."""
    system = build_kv_system(
        seed=seed,
        n_cohorts=3,
        n_keys=txns,
        config=ProtocolConfig(batch=batch_config(batch)),
        link=LOSSY if condition == "lossy" else None,
    )
    run = state_run(
        system,
        concurrency=concurrency,
        schedule=one_crash(150.0) if condition == "viewchange" else None,
    )
    return run.metrics, run.state


def e18_shape(rows) -> list:
    """The safety half of E18's claim is binary: every config on every
    schedule must reproduce the unbatched run's final state."""
    return [
        f"a batched run diverged from the unbatched state digest: {row}"
        for row in rows
        if row[-1] != "yes"
    ]


def e18_batching(
    seed: int = 1801,
    txns: int = 160,
    concurrency: int = 16,
) -> ExperimentResult:
    rows = []
    for condition in E18_CONDITIONS:
        base_messages = None
        base_digest = None
        for label, batch in E18_CONFIGS:
            metrics, digest = batching_run(seed, condition, batch, txns, concurrency)
            if batch is None:
                base_messages = metrics["messages"]
                base_digest = digest
            rows.append(
                (
                    condition,
                    label,
                    metrics["committed"],
                    metrics["retries"],
                    metrics["messages"],
                    round(metrics["messages"] / metrics["committed"], 1),
                    round(base_messages / metrics["messages"], 2)
                    if base_messages
                    else float("nan"),
                    metrics["view_changes"],
                    "yes" if digest == base_digest else "NO",
                )
            )
    return ExperimentResult(
        exp_id="E18",
        title="batched & pipelined replication vs the paper's unbatched path",
        claim=(
            "Section 3.7: 'careful engineering is needed here to provide "
            "both speedy delivery and small numbers of messages' -- the "
            "communication buffer may coalesce event records and "
            "acknowledgements without changing what the protocol computes. "
            "Batching (BatchConfig.enabled) must cut messages per committed "
            "call while leaving the final replicated state byte-identical "
            "to the unbatched baseline, on clean, lossy, and mid-stream "
            "view-change schedules alike."
        ),
        headers=[
            "condition",
            "config",
            "committed",
            "retried",
            "messages",
            "msgs/txn",
            "msg reduction",
            "view changes",
            "state == unbatched",
        ],
        rows=rows,
        notes=(
            "One seed, 160 distinct-key writes retried until committed "
            "(idempotent, so the final state is schedule-independent and "
            "comparable across configs by sha256 state digest).  "
            "'b=N d=K' is BatchConfig(max_batch=N, pipeline_depth=K, "
            "flush_interval=0.5); 'msg reduction' is total network "
            "messages relative to the unbatched run of the same "
            "condition.  The viewchange condition crashes the kv primary "
            "at t=150 and recovers it 400 later; retried counts the "
            "extra attempts the crash (or loss) aborted.  On a clean LAN "
            "the win is ack coalescing plus per-tick flush coalescing, "
            "over an unbatched path whose forces already ship only the "
            "sub-majority they wait for; under loss the reduction shrinks "
            "to seed noise, because go-back-N rewinds re-send at most one "
            "window: a larger max_batch makes that window (and each "
            "redundant resend) bigger, a small one stops and waits."
        ),
        failures=e18_shape(rows),
    )

