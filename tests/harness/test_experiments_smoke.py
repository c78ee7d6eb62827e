"""Smoke tests for the experiment harness (tiny parameterizations).

The full-size studies run under ``pytest benchmarks/ --benchmark-only``;
these verify each experiment's *direction* quickly so harness regressions
surface in the ordinary test run.
"""


from repro.harness import (
    e01_call_overhead,
    e02_prepare_wait,
    e03_commit_crossover,
    e05_vs_voting,
    e09_vs_isis,
    format_result,
)
from repro.harness.common import ExperimentResult, build_kv_system, run_kv_batch


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


def test_format_result_renders():
    result = ExperimentResult(
        exp_id="EX",
        title="example",
        claim="a claim",
        headers=["a", "b"],
        rows=[[1, 2]],
        notes="a note",
    )
    text = format_result(result)
    assert "EX" in text and "a claim" in text and "a note" in text


def test_build_kv_system_helper():
    rt, kv, clients, driver, spec = build_kv_system(seed=1, n_cohorts=3)
    stats = run_kv_batch(rt, driver, spec, 5, read_fraction=0.5)
    assert stats.committed == 5
    rt.quiesce()
    rt.check_invariants()


def test_harness_cli_list(capsys):
    from repro.harness.__main__ import main

    assert main(["--list"]) == 0
    out = capsys.readouterr().out
    assert "E1" in out and "e13_end_to_end" in out


def test_harness_cli_unknown_experiment(capsys):
    from repro.harness.__main__ import main

    assert main(["E99"]) == 2
