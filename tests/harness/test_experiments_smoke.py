"""Smoke tests for the experiment harness (tiny parameterizations) and its CLI.

The full-size studies are CI's ``python -m repro.harness --check``; these
verify each experiment's *direction* quickly so harness regressions surface
in the ordinary test run.
"""

import pathlib

import pytest

from repro.harness.__main__ import ALL_EXPERIMENTS, DOC, block_pattern, main
from repro.harness.common import ExperimentResult, build_kv_system, run_kv_batch
from repro.harness.experiments_cohort import e21_shape
from repro.harness.experiments_compare import e05_vs_voting, e09_vs_isis
from repro.harness.experiments_core import (
    e01_call_overhead,
    e02_prepare_wait,
    e03_commit_crossover,
)
from repro.harness.experiments_geo import e20_shape
from repro.harness.experiments_reads import e19_shape
from repro.harness.experiments_scale import e18_shape

COMMITTED = (pathlib.Path(__file__).resolve().parents[2] / DOC).read_text()


def test_e01_small_run_flat_latency():
    result = e01_call_overhead(txns=16)
    assert isinstance(result, ExperimentResult)
    by_system = {row[0]: row for row in result.rows}
    unreplicated = by_system["unreplicated"]
    vr7 = by_system["vr n=7"]
    # Sync cost identical; call latency within 10%.
    assert unreplicated[2] == vr7[2] == 2.0
    assert abs(unreplicated[4] - vr7[4]) / unreplicated[4] < 0.1


def test_e02_prepare_wait_is_jitter_at_any_flush_interval():
    """Section 3.7's headline: with think time no prepare waits, and with
    none the wait is far below half a round trip (1.1) -- whatever the sweep
    period, which no longer carries completed-call records."""
    result = e02_prepare_wait(txns=16)
    intervals = set()
    for flush_ival, think, prepares, waited, mean_wait, _force, latency in result.rows:
        intervals.add(flush_ival)
        assert prepares == 16
        if think:
            assert waited == 0.0 and mean_wait == 0.0
        else:
            assert mean_wait <= 0.5 and latency <= 11.5
    assert intervals == {1.0, 5.0, 20.0, 60.0}


def test_e03_crossover_direction():
    result = e03_commit_crossover(txns=20)
    cheap_disk = result.rows[0]
    pricey_disk = result.rows[-1]
    assert cheap_disk[-1] == "stable"
    assert pricey_disk[-1] == "vr"


def test_e05_vr_beats_voting_on_writes():
    result = e05_vs_voting(ops=24)
    write_row = result.rows[0]  # 0% reads
    _mix, _vr_sync, vr_total, rawa, maj = write_row
    assert vr_total < rawa
    assert vr_total < maj


def test_e05_background_delivery_costs_at_most_a_quarter_message_per_op():
    """The committed table's size (ten 8-call transactions): the push rides
    on the predicted last call only, so VR's total stays within 0.25 of the
    6.00 msgs/op it cost before background delivery (7.03 without the
    predictor) and below both voting columns."""
    result = e05_vs_voting(ops=80)
    for row in result.rows[:2]:  # 0% and 50% reads
        assert row[2] <= 6.00 + 0.25
    _mix, _vr_sync, vr_total, rawa, maj = result.rows[0]
    assert vr_total < maj < rawa


def test_e09_isis_growth_direction():
    result = e09_vs_isis(txn_counts=(1, 8), ops_per_txn=3)
    first, last = result.rows[0], result.rows[-1]
    # VR flat within noise; Isis strictly growing.
    assert abs(first[1] - last[1]) < 0.25 * first[1]
    assert last[2] > first[2]
    assert last[3] > first[3]


def test_build_kv_system_helper():
    rt, kv, clients, driver, spec = build_kv_system(seed=1, n_cohorts=3)
    stats = run_kv_batch(rt, driver, spec, 5, read_fraction=0.5)
    assert stats.committed == 5
    rt.quiesce()
    rt.check_invariants()


def test_harness_cli_unknown_experiment(capsys):
    assert main(["E99"]) == 2
    for unknown in (["--chek"], ["--write", "--check"]):
        with pytest.raises(SystemExit) as exited:
            main(unknown)
        assert exited.value.code == 2


def test_every_experiment_has_exactly_one_block_and_every_block_an_experiment():
    blocks = [exp_id for _table, exp_id in block_pattern().findall(COMMITTED)]
    assert blocks == list(ALL_EXPERIMENTS)
    assert COMMITTED.count("```") == 2 * len(blocks)  # and no other fence


def test_check_holds_the_committed_tables_and_names_an_edited_one(
    tmp_path, monkeypatch, capsys
):
    (tmp_path / DOC).write_text(COMMITTED)
    monkeypatch.chdir(tmp_path)
    assert main(["--check", "E1", "E4"]) == 0
    table = block_pattern("E4").search(COMMITTED).group(1)
    (tmp_path / DOC).write_text(COMMITTED.replace(table, table.replace("5.70", "5.71")))
    capsys.readouterr()
    assert main(["--check", "E1", "E4"]) == 1
    captured = capsys.readouterr()
    assert "E1: EXPERIMENTS.md is current" in captured.out
    assert "harness: FAIL -- E4: EXPERIMENTS.md is stale" in captured.err
    assert "\n-3  5" in captured.err and "\n+3  5" in captured.err  # the diff
    # --write puts the table back, touches nothing else, and is idempotent
    assert main(["--write", "E4"]) == 0
    assert (tmp_path / DOC).read_text() == COMMITTED
    assert main(["--write", "E4"]) == 0
    assert (tmp_path / DOC).read_text() == COMMITTED


def test_each_shape_check_rejects_a_hand_broken_result():
    e18 = ("clean", "b=8 d=1", 160, 0, 2000, 12.5, 1.6, 0)
    assert e18_shape([e18 + ("yes",)]) == []
    assert "diverged" in e18_shape([e18 + ("NO",)])[0]

    def e19(speedup=4.2, staleness=10.0):
        row = (500, 0, 2.2, 4.0, speedup, 6.3, "", staleness, 60)
        return [("leases",) + row, ("backup",) + row]

    assert e19_shape(e19()) == []
    assert "did not beat the call path" in e19_shape(e19(speedup=1.0))[0]
    assert "staleness bound" in e19_shape(e19(staleness=50.1))[0]

    def e20(bound="bound 525 met", local="26.5", lease="leases stopped before ..."):
        return [
            ("(a) failover [spread]", "dc-a->dc-b", "90.0", "120.0", bound),
            ("(b) 2PC latency [spread]", "48 committed", "84.2", "200.0", "0 aborted"),
            ("(b) 2PC latency [single_dc]", "48 committed", local, "200.0", "0 aborted"),
            ("(c) region partition", "40 majority commits", "13.6", "316.6", lease),
        ]

    assert e20_shape(e20()) == []
    assert "failover bound missed" in e20_shape(e20(bound="bound 525 MISSED"))[0]
    assert "locality did not win" in e20_shape(e20(local="84.2"))[0]
    assert "lease outlived" in e20_shape(e20(lease="LEASE OVERLAP"))[0]

    def e21(cut="9.6x", failover="70", committed=24):
        return [
            (100, "baseline", "231.2", "198.8", "1.0x", "50", 24),
            (100, "all", "24.1", "6.8", cut, failover, committed),
        ]

    assert e21_shape(e21(), 24) == []
    assert "cut only 3.0x" in e21_shape(e21(cut="3.0x"), 24)[0]
    assert "lost writes" in e21_shape(e21(committed=23), 24)[0]
    assert "never re-formed" in e21_shape(e21(failover="inf"), 24)[0]
