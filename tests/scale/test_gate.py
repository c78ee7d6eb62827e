"""The scale rows of ``repro.gate`` and the scale docs-drift CLI."""

import pathlib

from repro.checkdocs import check_docs
from repro.config import ProtocolConfig, ScaleConfig
from repro.gate import state_run
from repro.harness.common import build_kv_system
from repro.scale.__main__ import main as scale_main

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]


def _run(scale):
    system = build_kv_system(
        seed=77, n_cohorts=5, n_keys=8, kv_config=ProtocolConfig(scale=scale)
    )
    return state_run(system, settle=200.0, quiesce=100.0)


def test_state_run_is_deterministic_and_mechanism_invariant():
    baseline = _run(None)
    assert baseline == _run(None)  # same seed, same run -- metrics and digests
    assert baseline.complete and baseline.metrics["committed"] == 8
    # All-off is byte-identical DOWN TO THE SCHEDULE (ledger digest)...
    assert _run(ScaleConfig()) == baseline
    # ...while armed mechanisms move messages but never change the state.
    armed = _run(ScaleConfig(gossip=True, ack_tree=True, witnesses=1))
    assert armed.complete
    assert armed.state == baseline.state
    assert armed.schedule != baseline.schedule  # gossip genuinely reshapes it


def test_check_docs_passes_on_shipped_doc(capsys):
    doc = REPO_ROOT / "docs" / "SCALE.md"
    assert scale_main(["check-docs", str(doc)]) == 0
    assert "documents all" in capsys.readouterr().out


def test_check_docs_fails_on_incomplete_doc(tmp_path, capsys):
    doc = tmp_path / "SCALE.md"
    doc.write_text("# scaling\n\nnothing relevant here\n")
    assert scale_main(["check-docs", str(doc)]) == 1
    assert "missing documentation" in capsys.readouterr().err


def test_check_docs_unreadable_doc(tmp_path):
    assert scale_main(["check-docs", str(tmp_path / "missing.md")]) == 2


def test_a_longer_name_does_not_document_a_shorter_one(tmp_path, capsys):
    """``gossip_fanout`` in the doc is not a mention of ``gossip``."""
    doc = tmp_path / "SCALE.md"
    doc.write_text("Set `gossip_fanout` to 3.\n")
    required = {"ScaleConfig knob": ("gossip", "gossip_fanout")}
    assert check_docs(str(doc), required) == 1
    err = capsys.readouterr().err
    assert "ScaleConfig knob 'gossip'" in err and "'gossip_fanout'" not in err
    doc.write_text("Set `gossip_fanout` to 3 once `gossip` is on.\n")
    assert check_docs(str(doc), required) == 0
