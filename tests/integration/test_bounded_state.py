"""A fault-free run leaves per-cohort state that does not grow with work.

ROADMAP open item 4 asks that nothing a cohort keeps, and a newview ships,
grow with the number of transactions the group has run.  In the
``mixed_n3`` shape (a ``kv`` group and a ``clients`` group of three
cohorts, four closed-loop clients, 50/50 single-key reads and writes on 16
keys over the LAN) every cohort's outcome-table wire size, its pending and
committing records and its lock table are the same after N transactions as
after 4N: a coordinator view numbers its aids one after another, so the
outcomes it decides are one run of ``seq`` (DESIGN.md D27), and nothing else
survives a transaction's end.
"""

import random

from repro.harness.common import build_kv_system
from repro.workloads.loadgen import run_closed_loop

SEED = 4242


def _jobs(n_txns, spec):
    rng = random.Random(SEED)
    jobs = []
    for index in range(n_txns):
        key = spec.key(rng.randrange(spec.n_keys))
        if rng.random() < 0.5:
            jobs.append(("read", ("kv", key)))
        else:
            jobs.append(("write", ("kv", key, index)))
    return jobs


def _state_after(n_txns):
    """Per cohort, after *n_txns* transactions and a quiesce: the outcome
    table's wire size, pending, committing and the lock table."""
    rt, kv, _clients, driver, spec = build_kv_system(seed=SEED)
    stats = run_closed_loop(rt, driver, "clients", _jobs(n_txns, spec), concurrency=4)
    while len(stats.results) < n_txns:
        assert rt.sim.now < 50_000.0, "the load did not finish"
        rt.run_for(10.0)
    rt.quiesce()
    assert stats.committed == n_txns and rt.lock_residue() == []
    for cohort in kv.cohorts.values():  # the table holds every transaction
        assert sum(1 for _ in cohort.outcomes.items()) == n_txns
    return {
        cohort.address: (
            cohort.outcomes.wire_size(),
            cohort.pending,
            cohort.committing,
            cohort.store.lockers,
        )
        for group in rt.groups.values()
        for cohort in group.cohorts.values()
    }


def test_per_cohort_state_is_the_same_after_n_and_4n_transactions():
    small, large = _state_after(100), _state_after(400)
    assert large == small
