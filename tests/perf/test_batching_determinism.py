"""Cross-config determinism: batching must not change what a run computes.

``BatchConfig`` only changes how the communication buffer *transmits*
(coalesced flush ticks, cumulative-ack coalescing, pipelined windows), so
a batched and an unbatched run of the same idempotent retried workload
must end in byte-identical replicated state -- on a clean schedule, under
loss, and through a mid-stream view change.  These are the tier-1
counterparts of the E18 experiment and CI's ``python -m repro.gate batching``
(one cell, ``repro.gate.state_run``, under all three).
"""

import pytest

from repro.harness.experiments_scale import batching_run
from repro.perf.report import state_digest
from repro.workloads.loadgen import run_closed_loop

TXNS = 60
CONCURRENCY = 8


def _cell(condition, batch, seed=181):
    metrics, digest = batching_run(seed, condition, batch, TXNS, CONCURRENCY)
    assert metrics["committed"] == TXNS, (
        f"{condition}/{batch}: only {metrics['committed']}/{TXNS} committed"
    )
    return metrics, digest


@pytest.mark.parametrize("batch", [(1, 1), (8, 2), (64, 4), (256, 8)])
def test_batched_state_matches_unbatched_clean(batch):
    _, unbatched = _cell("clean", None)
    metrics, batched = _cell("clean", batch)
    assert batched == unbatched


@pytest.mark.parametrize("batch", [(8, 1), (64, 4)])
def test_batched_state_matches_unbatched_lossy(batch):
    _, unbatched = _cell("lossy", None)
    _, batched = _cell("lossy", batch)
    assert batched == unbatched


@pytest.mark.parametrize("batch", [(8, 1), (64, 4)])
def test_batched_state_matches_unbatched_through_view_change(batch):
    unbatched_metrics, unbatched = _cell("viewchange", None)
    batched_metrics, batched = _cell("viewchange", batch)
    assert unbatched_metrics["view_changes"] >= 1
    assert batched_metrics["view_changes"] >= 1
    assert batched == unbatched


def test_batched_uses_fewer_messages_clean():
    unbatched_metrics, _ = _cell("clean", None)
    batched_metrics, _ = _cell("clean", (64, 4))
    assert batched_metrics["messages"] < unbatched_metrics["messages"]


def test_same_seed_same_state_digest_batched():
    _, first = _cell("clean", (64, 4))
    _, second = _cell("clean", (64, 4))
    assert first == second


def test_retry_loop_commits_each_job_once():
    # The determinism argument leans on a retrying loop counting each job
    # exactly once in `committed`; pin that accounting down directly.
    from repro.harness.common import build_kv_system

    rt, _kv, _clients, driver, spec = build_kv_system(seed=7, n_cohorts=3, n_keys=10)
    jobs = [("write", ("kv", spec.key(index), index)) for index in range(10)]
    stats = run_closed_loop(rt, driver, "clients", jobs, concurrency=4, max_attempts=None)
    rt.run_for(5_000)
    assert stats.committed == 10
    assert stats.aborted == 0


def test_state_digest_ignores_schedule_but_not_values():
    from repro.harness.common import build_kv_system

    def run(value_offset):
        rt, _kv, _clients, driver, spec = build_kv_system(
            seed=7, n_cohorts=3, n_keys=6
        )
        jobs = [
            ("write", ("kv", spec.key(index), index + value_offset))
            for index in range(6)
        ]
        stats = run_closed_loop(rt, driver, "clients", jobs, concurrency=3, max_attempts=None)
        rt.run_for(5_000)
        assert stats.committed == 6
        return state_digest(rt)

    assert run(0) == run(0)
    assert run(0) != run(100)
