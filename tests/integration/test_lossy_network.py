"""Protocol resilience on lossy, duplicating, reordering links.

The paper's network model allows loss, duplication, and reordering even
without failures; the retransmission machinery (cumulative buffer acks,
call probes, prepare/commit retries, queries) must mask all of it.
"""

import pytest

from repro.net.link import LinkModel
from repro.workloads.loadgen import run_closed_loop

from tests.conftest import build_bank_system, build_counter_system, total_balance


LOSSY = LinkModel(base_delay=1.0, jitter=1.0, loss_probability=0.10,
                  duplicate_probability=0.05)
VERY_LOSSY = LinkModel(base_delay=1.0, jitter=2.0, loss_probability=0.25,
                       duplicate_probability=0.10)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_transactions_complete_under_loss(seed):
    rt, counter, _clients, driver = build_counter_system(seed=seed, link=LOSSY)
    committed = 0
    for _ in range(10):
        future = driver.call("clients", "bump", 1)
        rt.run_for(800)
        if future.done and future.result()[0] == "committed":
            committed += 1
    rt.quiesce(duration=1500)
    # Despite 10% loss, the vast majority commits; whatever committed is
    # exactly what the counter shows (exactly-once under duplication).
    assert committed >= 7
    assert counter.read_object("count") == rt.ledger.commit_count
    rt.check_invariants(require_convergence=False)


def test_exactly_once_under_heavy_duplication():
    """Network-duplicated calls/commits must never double-apply."""
    dup_heavy = LinkModel(base_delay=1.0, jitter=1.5, duplicate_probability=0.5)
    rt, counter, _clients, driver = build_counter_system(seed=5, link=dup_heavy)
    for _ in range(8):
        future = driver.call("clients", "bump", 1)
        rt.run_for(500)
        assert future.result()[0] == "committed"
    rt.quiesce()
    assert counter.read_object("count") == 8
    rt.check_invariants()


def test_money_conserved_under_very_lossy_link():
    rt, bank, _clients, driver = build_bank_system(seed=6, link=VERY_LOSSY)
    for _ in range(12):
        driver.call("clients", "transfer", "a", "b", 5)
        rt.run_for(900)
    rt.quiesce(duration=2000)
    assert total_balance(bank, ("a", "b", "c")) == 300
    rt.check_invariants(require_convergence=False)


def test_buffer_retransmission_converges_backups():
    """Backups behind a lossy link still converge via cumulative acks."""
    for seed in (7, 8, 9):
        rt, counter, _clients, driver = build_counter_system(seed=seed, link=LOSSY)
        stats = run_closed_loop(
            rt, driver, "clients", [("bump", (2,))] * 6, max_attempts=None
        )
        while stats.committed < 6 and rt.sim.now < 20_000:
            rt.run_for(500)
        rt.quiesce(duration=3000)
        assert stats.committed == 6, (seed, stats)
        assert counter.converged(), (seed, counter.divergence_report())
        # An attempt its client saw fail may still have committed: the ledger
        # counts those too, and each is in the counter exactly once.
        assert rt.ledger.commit_count >= 6
        for cohort in counter.active_cohorts():
            assert cohort.store.get("count").base == 2 * rt.ledger.commit_count, seed
