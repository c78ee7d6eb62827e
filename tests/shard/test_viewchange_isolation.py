"""A view change in one shard must abort only transactions touching it.

The paper's per-participant viewstamp validation (section 3.3) is what
makes sharding composable: a crashed shard invalidates only the psets
naming it.  These tests pin that isolation with explicit key sets -- every
transaction's shard footprint is constructed, not sampled -- so "only
touching transactions abort" is checked exactly, not statistically.

A call in flight at a primary crash follows the new primary and commits
(section 5: viewstamps avoid the abort), so the abort each test attributes
is constructed too: the crashed primary's links to its backups are cut
first, and the transaction's completed-call record, which the primary
has replied from, is lost with its view.  The new primary's history lacks
the pset's viewstamp and refuses the prepare (section 3.3).
"""

from tests.shard.util import await_primary, build_sharded, keys_owned_by, submit


def _crash_primary_with_stranded_records(rt, shard, txn_time=20.0):
    """Run *txn_time* with *shard*'s primary cut off from its backups, so
    every record it writes stays with it, then crash it and repair the
    links.  Returns the crashed mid."""
    primary = shard.active_primary()
    backups = [cohort for cohort in shard.cohorts.values() if cohort is not primary]
    for backup in backups:
        rt.faults.fail_link_oneway(primary.node.node_id, backup.node.node_id)
    rt.run_for(txn_time)  # the call ran at the primary; the prepare waits on a force
    assert primary.pending and not any(backup.pending for backup in backups)
    crashed_mid = shard.crash_primary()
    for backup in backups:
        rt.faults.repair_link_oneway(primary.node.node_id, backup.node.node_id)
    return crashed_mid


def test_cross_shard_txn_aborts_then_retries_on_one_shard_view_change():
    rt, sharded, driver = build_sharded(seed=42, n_shards=2)
    (src,) = keys_owned_by(sharded, 0)
    (dst,) = keys_owned_by(sharded, 1)
    future = driver.call(
        sharded, "transfer", src, dst, 5, retries=0, timeout=6000.0
    )
    crashed_mid = _crash_primary_with_stranded_records(rt, sharded.shard(0))
    assert crashed_mid is not None
    rt.run_for(4000.0)
    assert future.done
    outcome, _ = future.result()
    assert outcome == "aborted"
    assert rt.metrics.counters[f"prepares_refused:{sharded.shard_groupid(0)}"] == 1
    # the shard re-forms a view and the retried transfer commits; the
    # aborted attempt left no partial effects, so balances start from 0
    sharded.shard(0).recover_cohort(crashed_mid)
    await_primary(rt, sharded.shard(0))
    for _ in range(3):
        outcome, balances = submit(
            rt, driver, sharded, "transfer", src, dst, 5, time=1500.0
        )
        if outcome == "committed":
            break
    assert outcome == "committed"
    assert tuple(balances) == (-5, 5)


def test_single_shard_view_change_aborts_only_touching_txns():
    rt, sharded, driver = build_sharded(seed=7, n_shards=3)
    (touching_key,) = keys_owned_by(sharded, 0)
    safe1 = keys_owned_by(sharded, 1, count=3)
    safe2 = keys_owned_by(sharded, 2, count=3)
    # One cross-shard transfer whose pset will name the crashed shard,
    # and three transactions -- one cross-shard, two single-key -- whose
    # key sets avoid it entirely (and each other, so no lock-wait
    # collateral can blur the attribution).
    touching = driver.call(
        sharded, "transfer", touching_key, safe1[0], 1,
        retries=0, timeout=6000.0,
    )
    safe = [
        ("transfer", driver.call(
            sharded, "transfer", safe1[1], safe2[1], 1)),
        ("write", driver.call(sharded, "write", safe1[2], 9)),
        ("write", driver.call(sharded, "write", safe2[2], 9)),
    ]
    assert _crash_primary_with_stranded_records(rt, sharded.shard(0)) is not None
    rt.run_for(4000.0)
    assert touching.done
    outcome, _ = touching.result()
    assert outcome == "aborted"
    assert rt.metrics.counters[f"prepares_refused:{sharded.shard_groupid(0)}"] == 1
    for program, future in safe:
        assert future.done
        outcome, _ = future.result()
        assert outcome == "committed", (
            f"{program} touching no crashed shard was aborted"
        )
    # exactly the crashed shard changed views
    assert rt.ledger.view_changes_for(sharded.shard_groupid(0))
    for index in (1, 2):
        assert not rt.ledger.view_changes_for(sharded.shard_groupid(index))
    assert not rt.ledger.view_changes_for(sharded.router_groupid)
