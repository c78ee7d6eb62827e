"""The geo rows of ``repro.gate`` and the geo docs-drift CLI."""

import pathlib

from repro.gate import GATES
from repro.geo.__main__ import main as geo_main

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]


def test_state_run_is_deterministic_and_placement_invariant():
    rows = {label: run for label, run, _relations in GATES["geo"].rows}
    flat = rows["flat"](77, 8)
    assert flat == rows["flat"](77, 8)  # same seed, same run -- metrics and digests
    assert flat.complete and flat.metrics["committed"] == 8
    # Geography reshapes transport, never the replicated state.
    spread = rows["spread"](77, 8)
    assert spread.complete
    assert spread.state == flat.state
    assert spread.schedule != flat.schedule


def test_check_docs_passes_on_shipped_doc(capsys):
    doc = REPO_ROOT / "docs" / "GEO.md"
    assert geo_main(["check-docs", str(doc)]) == 0
    assert "documents all" in capsys.readouterr().out


def test_check_docs_fails_on_incomplete_doc(tmp_path, capsys):
    doc = tmp_path / "GEO.md"
    doc.write_text("# geography\n\nnothing relevant here\n")
    assert geo_main(["check-docs", str(doc)]) == 1
    assert "missing documentation" in capsys.readouterr().err


def test_check_docs_unreadable_doc(tmp_path):
    assert geo_main(["check-docs", str(tmp_path / "missing.md")]) == 2
