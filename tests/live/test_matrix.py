"""The gate's cell under schedules at a size where faults fire; the unhealable row; the CLI."""

from repro.gate import PAPER, Gate, _chaos, _kv, run_gate
from repro.live import SCHEDULES
from repro.live.cli import main as live_main


def test_schedule_catalog_has_exactly_one_unhealable_cell():
    unhealable = [s for s in SCHEDULES.values() if s.expect_violation]
    assert [s.name for s in unhealable] == ["majority_partition"]


def _cell(schedule, txns=600):
    """The plain system's row under *schedule*; any check of the cell raises."""
    held = _chaos(schedule=schedule)[1](0, txns)
    assert held.complete and held.state == _kv()(0, txns).state
    return held.metrics


def test_healable_cell_passes_and_commits_after_heal():
    metrics = _cell("lossy")
    assert metrics["faults"] > 0 and "violation" not in metrics


def test_disk_fault_cell_passes():
    metrics = _cell("disk_fault")
    assert metrics["faults"] > 0 and metrics["view_changes"] > 0


def test_unhealable_cell_requires_a_quorum_naming_violation(capsys):
    row = _chaos(schedule="majority_partition")
    assert row[2] == "violates"
    assert run_gate("matrix", Gate(0, 600, (PAPER, row))) == []
    printed = capsys.readouterr().out.splitlines()[1]
    assert "committed=0 " in printed and "violation=group 'kv' has 0 active" in printed
    assert "no partition block holds a majority" in printed


def test_cli_lists_specs_and_schedules(capsys):
    assert live_main(["specs"]) == 0
    assert live_main(["schedules"]) == 0
    out = capsys.readouterr().out
    assert "eventually_single_primary" in out
    assert "majority_partition" in out


def test_cli_check_docs_passes_on_the_shipped_doc():
    assert live_main(["check-docs", "docs/LIVENESS.md"]) == 0


def test_cli_check_docs_fails_on_incomplete_doc(tmp_path, capsys):
    doc = tmp_path / "LIVENESS.md"
    doc.write_text("eventually_single_primary only\n")
    assert live_main(["check-docs", str(doc)]) == 1
