"""Seeded chaos: random crashes and partitions with invariants checked.

Each scenario runs a contended bank workload while a failure schedule
injects faults, then asserts the full safety battery: one-copy
serializability of the committed history, conservation of money, no
contradictory outcomes, and replica convergence once an active view
exists and the system quiesces.
"""

import pytest

from repro import EmptyModule, Nemesis, Runtime
from repro.config import ProtocolConfig
from repro.storage.stable import StableStoragePolicy
from repro.workloads.bank import BankAccountsSpec, transfer_program
from repro.workloads.bank import total_balance as spec_total
from repro.workloads.loadgen import run_closed_loop


def crash_churn(rt, group, **knobs):
    rt.inject(Nemesis().crash_churn([n.node_id for n in group.nodes()], **knobs))


def partition_storm(rt, group, **knobs):
    rt.inject(Nemesis().partition_storm([n.node_id for n in group.nodes()], **knobs))


def stop_faults(rt):
    rt.faults.stop()
    rt.network.heal()


def build(seed, config=None):
    rt = Runtime(seed=seed, config=config) if config else Runtime(seed=seed)
    spec = BankAccountsSpec(n_accounts=8, opening_balance=100)
    bank = rt.create_group("bank", spec, n_cohorts=3)
    clients = rt.create_group("clients", EmptyModule(), n_cohorts=3)
    clients.register_program("transfer", transfer_program)
    driver = rt.create_driver("driver")
    return rt, bank, clients, driver, spec


def jobs_for(rt, spec, count):
    rng = rt.sim.rng.fork("jobs")
    return [
        (
            "transfer",
            (
                "bank",
                spec.account(rng.randint(0, spec.n_accounts - 1)),
                spec.account(rng.randint(0, spec.n_accounts - 1)),
                rng.randint(1, 10),
            ),
        )
        for _ in range(count)
    ]


def assert_safety(rt, bank, spec):
    rt.quiesce(duration=800)
    rt.check_invariants(require_convergence=False)
    if bank.active_primary() is not None:
        assert spec_total(bank, spec) == spec.n_accounts * spec.opening_balance
        rt.quiesce()
        problems = bank.divergence_report()
        assert not problems, problems


@pytest.mark.parametrize("seed", [11, 23, 37])
def test_crash_churn_preserves_safety(seed):
    rt, bank, _clients, driver, spec = build(seed)
    stats = run_closed_loop(rt, driver, "clients", jobs_for(rt, spec, 50),
                            concurrency=3)
    crash_churn(rt, bank, mttf=900.0, mttr=250.0, max_down=1)
    deadline = rt.sim.now + 60_000
    while stats.submitted < 50 and rt.sim.now < deadline:
        rt.run_for(500)
    rt.faults.stop()
    assert stats.committed > 0
    assert_safety(rt, bank, spec)


@pytest.mark.parametrize("seed", [5, 17])
def test_partition_storm_preserves_safety(seed):
    rt, bank, _clients, driver, spec = build(seed)
    stats = run_closed_loop(rt, driver, "clients", jobs_for(rt, spec, 40),
                            concurrency=3)
    partition_storm(rt, bank, mean_healthy=500.0, mean_partitioned=300.0)
    deadline = rt.sim.now + 60_000
    while stats.submitted < 40 and rt.sim.now < deadline:
        rt.run_for(500)
    stop_faults(rt)
    assert_safety(rt, bank, spec)


def test_combined_crashes_and_partitions():
    rt, bank, _clients, driver, spec = build(seed=71)
    stats = run_closed_loop(rt, driver, "clients", jobs_for(rt, spec, 40),
                            concurrency=2)
    crash_churn(rt, bank, mttf=1200.0, mttr=300.0, max_down=1)
    partition_storm(rt, bank, mean_healthy=800.0, mean_partitioned=250.0)
    deadline = rt.sim.now + 80_000
    while stats.submitted < 40 and rt.sim.now < deadline:
        rt.run_for(500)
    stop_faults(rt)
    assert_safety(rt, bank, spec)


def test_lossy_network_chaos():
    """Message loss + duplication + primary kills, all at once."""
    from repro.net.link import LinkModel

    rt = Runtime(
        seed=83,
        link=LinkModel(base_delay=1.0, jitter=1.5, loss_probability=0.08,
                       duplicate_probability=0.05),
    )
    spec = BankAccountsSpec(n_accounts=6, opening_balance=100)
    bank = rt.create_group("bank", spec, n_cohorts=3)
    clients = rt.create_group("clients", EmptyModule(), n_cohorts=3)
    clients.register_program("transfer", transfer_program)
    driver = rt.create_driver("driver")
    stats = run_closed_loop(rt, driver, "clients", jobs_for(rt, spec, 40),
                            concurrency=2)
    rt.inject(Nemesis().crash_primary("bank", every=700.0, count=3, recover_after=350.0))
    deadline = rt.sim.now + 80_000
    while stats.submitted < 40 and rt.sim.now < deadline:
        rt.run_for(500)
    assert stats.committed > 0
    assert_safety(rt, bank, spec)


def test_chaos_with_ups_storage_allows_deep_churn():
    """With section-4.2 NVRAM hardening, even overlapping double-crashes
    (temporary catastrophes) resolve with full safety."""
    config = ProtocolConfig(storage_policy=StableStoragePolicy.ALL)
    rt, bank, _clients, driver, spec = build(seed=97, config=config)
    stats = run_closed_loop(rt, driver, "clients", jobs_for(rt, spec, 40),
                            concurrency=2)
    crash_churn(rt, bank, mttf=500.0, mttr=200.0)
    deadline = rt.sim.now + 80_000
    while stats.submitted < 40 and rt.sim.now < deadline:
        rt.run_for(500)
    rt.faults.stop()
    rt.run_for(3000)  # let everyone recover and re-form
    assert_safety(rt, bank, spec)
    assert stats.committed > 0


def test_chaos_determinism():
    """The same seed reproduces the exact same run, byte for byte."""

    def run_once():
        rt, bank, _clients, driver, spec = build(seed=123)
        stats = run_closed_loop(rt, driver, "clients", jobs_for(rt, spec, 20),
                                concurrency=2)
        rt.inject(
            Nemesis().crash_primary("bank", every=300.0, count=2, recover_after=150.0)
        )
        deadline = rt.sim.now + 30_000
        while stats.submitted < 20 and rt.sim.now < deadline:
            rt.run_for(500)
        return (
            stats.committed,
            stats.aborted,
            rt.sim.events_processed,
            sorted(str(a) for a in rt.ledger.committed),
            dict(rt.metrics.messages_sent),
        )

    assert run_once() == run_once()
