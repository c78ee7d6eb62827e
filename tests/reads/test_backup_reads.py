"""Stale-bounded backup reads: a fresh backup serves within the bound
with honest staleness, an unsatisfiable bound steers the read to the
leased primary, and a backup cut off from the replication stream rejects
bounded reads while still serving its old prefix under an explicitly
generous bound."""

from repro.config import DEFAULT_MAX_STALENESS, ProtocolConfig, ReadConfig
from repro.harness.common import build_kv_system
from repro.workloads.loadgen import run_closed_loop

from tests.reads.test_lease_protocol import commit_write, run_read


def reads_config():
    return ProtocolConfig(reads=ReadConfig(enabled=True))


class _PickMid:
    """Deterministic stand-in for the driver's backup-choice rng."""

    def __init__(self, mid):
        self.mid = mid

    def choice(self, addresses):
        for address in addresses:
            if str(address).endswith(f"/{self.mid}"):
                return address
        raise AssertionError(
            f"no address for mid {self.mid} in {addresses!r}"
        )


def test_fresh_backup_serves_within_the_default_bound():
    rt, _kv, _clients, driver, spec = build_kv_system(
        seed=31, config=reads_config()
    )
    rt.run_for(150.0)
    commit_write(rt, driver, spec.key(0), 1)
    result = run_read(rt, driver, "kv", spec.key(0), prefer="backup")
    assert result.ok
    assert result.mode == "backup"
    assert result.value == 1
    assert 0.0 <= result.staleness <= DEFAULT_MAX_STALENESS
    assert rt.metrics.counters.get("backup_reads:kv", 0) >= 1


def test_unsatisfiable_bound_steers_to_the_leased_primary():
    rt, _kv, _clients, driver, spec = build_kv_system(
        seed=32, config=reads_config()
    )
    rt.run_for(150.0)
    commit_write(rt, driver, spec.key(0), 3)
    result = run_read(
        rt, driver, "kv", spec.key(0), prefer="backup", max_staleness=1e-6
    )
    assert result.ok
    assert result.mode == "lease"
    assert result.value == 3
    assert result.staleness == 0.0


def test_lagging_backup_rejects_bounded_reads_but_serves_its_prefix():
    rt, kv, _clients, driver, spec = build_kv_system(
        seed=33, config=reads_config()
    )
    rt.run_for(150.0)
    commit_write(rt, driver, spec.key(0), 1)
    primary = kv.active_primary()
    lagger = next(
        cohort for cohort in kv.cohorts.values()
        if cohort.mymid != primary.mymid
    )
    driver._read_rng = _PickMid(lagger.mymid)

    # sever only the lagging backup's replication stream; commits still
    # reach a majority (the primary plus the other backup).  Step in
    # small increments from here on: the whole lagging window must stay
    # under the underling timeout, or the cut-off backup calls a view
    # change and the reformed view catches it up.
    rt.faults.fail_link(primary.node.node_id, lagger.node.node_id)
    cut_at = rt.sim.now
    stats = run_closed_loop(
        rt, driver, "clients", [("write", ("kv", spec.key(0), 2))], max_attempts=None
    )
    while stats.committed < 1 and rt.sim.now < cut_at + 30.0:
        rt.run_for(5.0)
    assert stats.committed == 1, "write never committed"
    rt.run_for(15.0)  # lag grows past the 20.0 bound

    # bounded read at the lagging backup: too stale, steered to the
    # leased primary, which serves the committed value
    steered = run_read(
        rt, driver, "kv", spec.key(0), prefer="backup", max_staleness=20.0
    )
    assert steered.ok and steered.mode == "lease" and steered.value == 2

    # an explicitly generous bound reads the lagging backup's old
    # prefix, with the staleness reported honestly
    stale = run_read(
        rt, driver, "kv", spec.key(0), prefer="backup", max_staleness=500.0
    )
    assert stale.ok
    assert stale.mode == "backup"
    assert stale.value == 1
    assert stale.staleness > 20.0

    # healed, the backup catches up and serves fresh bounded reads again
    rt.faults.heal()
    rt.run_for(80.0)
    caught_up = run_read(
        rt, driver, "kv", spec.key(0), prefer="backup", max_staleness=20.0
    )
    assert caught_up.ok
    assert caught_up.mode == "backup"
    assert caught_up.value == 2
    assert caught_up.staleness <= 20.0
