"""Experiment E19: the read serving path vs the paper's full call path.

In the paper every read is a transaction: it travels to the client-group
primary, opens locks at the kv primary, and pays the commit round like a
write (section 3.7 prices the call, not the operation).  ``ReadConfig``
adds three progressively cheaper ways to serve a read without giving up
the safety argument -- a leased primary answering locally, a backup
answering from its applied prefix under an explicit staleness bound, and
a client-side commit-set cache (docs/READS.md).  E19 measures what each
buys on the workload the path exists for: an open-loop zipfian get/put
mix at 90% reads.

The measured cell is :func:`reads_run`: one open-loop 90/10 mix, identical
arrival/key/op sequences across conditions, reporting read latency,
serving-mode breakdown, and observed staleness.  That the same conditions
never change what the protocol *computes* is ``python -m repro.gate reads``.
"""

from __future__ import annotations

from repro.config import DEFAULT_MAX_STALENESS
from repro.harness.common import (
    E19_CONDITIONS,
    ExperimentResult,
    build_kv_system,
    run_until,
)
from repro.perf.report import state_digest
from repro.workloads.loadgen import run_open_loop


def reads_run(
    seed: int,
    condition: str,
    n_keys: int = 16,
    duration: float = 600.0,
    rate: float = 0.5,
    read_fraction: float = 0.9,
    settle: float = 60.0,
):
    """One measured cell of the serving-path study.

    Returns ``(metrics dict, state digest)``.  The settle window lets the
    initial view form (and the lease arm) before the open loop starts, so
    latency differences measure the serving path, not view formation.
    """
    config, prefer = E19_CONDITIONS[condition]
    rt, _kv, _clients, driver, spec = build_kv_system(
        seed=seed, n_cohorts=3, n_keys=n_keys, config=config
    )
    rt.run_for(settle)
    stats = run_open_loop(
        rt, driver,
        key=spec.key, n_keys=n_keys, duration=duration, rate=rate,
        read_fraction=read_fraction,
        prefer=prefer,
        use_read_path=config is not None,
        # condition-independent rng fork names: every condition replays
        # the same arrival/key/op sequence
        name="e19",
    )
    rt.run_for(duration)
    run_until(rt, lambda: stats.drained, step=100.0, max_time=20_000.0)
    rt.quiesce()
    rt.check_invariants(require_convergence=False)
    metrics = {
        "reads_ok": stats.reads_ok,
        "reads_failed": stats.reads_failed,
        "read_mean": stats.read_mean_latency,
        "read_p99": stats.read_p99_latency,
        "read_modes": dict(sorted(stats.read_modes.items())),
        "max_staleness": stats.max_observed_staleness,
        "writes_committed": stats.writes_committed,
        "writes_aborted": stats.writes_aborted,
        "messages": rt.network.messages_sent_total,
    }
    return metrics, state_digest(rt)


def _format_modes(modes: dict) -> str:
    return " ".join(f"{mode}:{count}" for mode, count in sorted(modes.items()))


def e19_shape(rows) -> list:
    """The performance half of E19's claim -- leased reads beat the full
    transactional path on the read-dominant workload -- and the staleness
    half: backup reads stay under the configured bound."""
    by_condition = {row[0]: row for row in rows}
    leases, backup = by_condition["leases"], by_condition["backup"]
    failures = []
    if not leases[5] > 1.5:  # mean-latency speedup vs baseline
        failures.append(f"leased reads did not beat the call path: {leases}")
    if not backup[8] <= DEFAULT_MAX_STALENESS:
        failures.append(f"backup served a read past the staleness bound: {backup}")
    return failures


def e19_reads(seed: int = 1901) -> ExperimentResult:
    rows = []
    base_mean = None
    base_p99 = None
    for condition in E19_CONDITIONS:
        metrics, _digest = reads_run(seed, condition)
        if condition == "baseline":
            base_mean = metrics["read_mean"]
            base_p99 = metrics["read_p99"]
        rows.append(
            (
                condition,
                metrics["reads_ok"],
                metrics["reads_failed"],
                round(metrics["read_mean"], 2),
                round(metrics["read_p99"], 2),
                round(base_mean / metrics["read_mean"], 2)
                if base_mean
                else float("nan"),
                round(base_p99 / metrics["read_p99"], 2)
                if base_p99
                else float("nan"),
                _format_modes(metrics["read_modes"]),
                round(metrics["max_staleness"], 2),
                metrics["writes_committed"],
            )
        )
    return ExperimentResult(
        exp_id="E19",
        title="read-dominant serving: leases, backup reads, client caches",
        claim=(
            "In the paper a read costs what a write costs: it is a "
            "transaction through the client primary, the kv primary, and "
            "the commit round (section 3.7 prices calls, not operations). "
            "A quorum-leased primary can serve linearizable reads locally "
            "in one client round trip, backups can serve explicitly "
            "stale-bounded reads from their applied prefix, and a "
            "commit-set client cache can serve them with no messages at "
            "all -- with the lease invalidated across view changes so no "
            "committed write is ever concurrent with a stale lease "
            "serving reads (docs/READS.md)."
        ),
        headers=[
            "condition",
            "reads ok",
            "failed",
            "read mean",
            "read p99",
            "speedup",
            "p99 speedup",
            "served by",
            "max staleness",
            "writes ok",
        ],
        rows=rows,
        notes=(
            "One seed, open-loop Poisson arrivals at rate 0.5 for 600 "
            "time units after a 60-unit settle, zipfian(theta=0.99) keys "
            "over 16, 90% reads.  All conditions replay identical "
            "arrival/key/op sequences; 'speedup' is baseline mean read "
            "latency over the condition's.  baseline sends every read "
            "down the full transactional path; leases serves from the "
            "quorum-leased primary (staleness 0); backup prefers a "
            "randomly chosen backup under the default max_staleness "
            "bound, so 'max staleness' reports the worst prefix lag "
            "actually served (up to 1.5 heartbeat intervals: the primary "
            "skips the beacon to a backup it sent a buffer message within "
            "the last half interval); cache adds the "
            "client-side commit-set cache, whose hits cost zero network "
            "round trips.  Writes always use the call path.  The "
            "stale-read safety half of the claim is gated separately by "
            "python -m repro.gate reads (byte-identical state digests "
            "across all serving configs) and the stale_lease monitor."
        ),
        failures=e19_shape(rows),
    )
