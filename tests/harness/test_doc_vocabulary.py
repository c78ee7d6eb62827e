"""Every doc of ``repro.checkdocs.DOCS`` names its vocabulary, and
``python -m repro.harness --check`` names each gap."""

import pathlib
import re

import pytest

from repro.checkdocs import DOCS, TRACING, gaps
from repro.harness import __main__ as harness

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]

each_doc = pytest.mark.parametrize("doc", DOCS, ids=lambda doc: pathlib.PurePath(doc).stem)


@pytest.fixture
def scratch(tmp_path, monkeypatch):
    """Run in an empty directory; ``write(doc, text)`` puts a doc there."""
    monkeypatch.chdir(tmp_path)

    def write(doc, text=None):
        target = tmp_path / doc
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text((REPO_ROOT / doc).read_text() if text is None else text)

    return write


@each_doc
def test_a_shipped_doc_has_no_gaps(doc, monkeypatch):
    monkeypatch.chdir(REPO_ROOT)
    assert gaps(doc) == []


@each_doc
def test_a_stripped_doc_names_each_missing_category_and_name(doc, scratch):
    scratch(doc, "# nothing relevant here\n")
    missing = gaps(doc)
    for category, names in DOCS[doc].items():
        for name in names:
            assert f"{category} {name!r}" in missing


@each_doc
def test_an_unreadable_doc_is_a_gap(doc, scratch):
    (missing,) = gaps(doc)
    assert missing.startswith(f"cannot read {doc}: ")


def test_a_longer_name_does_not_document_a_shorter_one(scratch, monkeypatch):
    """``gossip_fanout`` in the doc is not a mention of ``gossip``."""
    monkeypatch.setitem(DOCS, "SCALE.md", {"ScaleConfig knob": ("gossip", "gossip_fanout")})
    scratch("SCALE.md", "Set `gossip_fanout` to 3.\n")
    assert gaps("SCALE.md") == ["ScaleConfig knob 'gossip'"]
    scratch("SCALE.md", "Set `gossip_fanout` to 3 once `gossip` is on.\n")
    assert gaps("SCALE.md") == []


def test_a_monitor_row_that_drops_a_kind_is_named(scratch):
    text = (REPO_ROOT / TRACING).read_text()
    scratch(TRACING, text.replace("| `primary_activated` |", "| |"))
    assert gaps(TRACING) == ["single_primary subscribes to primary_activated"]


@each_doc
def test_check_fails_when_a_doc_loses_any_one_name(doc, scratch, monkeypatch, capsys):
    """With no NAME, ``--check`` holds every doc after the tables (none here)."""
    for each in DOCS:
        scratch(each)
    scratch(harness.DOC, "")
    monkeypatch.setattr(harness, "ALL_EXPERIMENTS", {})
    assert harness.main(["--check"]) == 0
    assert f"{doc}: names its whole vocabulary" in capsys.readouterr().out
    text = (REPO_ROOT / doc).read_text()
    for category, names in DOCS[doc].items():
        for name in names:
            whole = rf"(?<![A-Za-z0-9_]){re.escape(name)}(?![A-Za-z0-9_])"
            scratch(doc, re.sub(whole, "", text))
            assert harness.main(["--check"]) == 1
            err = capsys.readouterr().err
            assert f"harness: FAIL -- {doc} is missing " in err
            assert f"{category} {name!r}" in err


def test_a_kind_entry_must_list_exactly_its_declared_fields(scratch):
    text = (REPO_ROOT / TRACING).read_text()
    entry = "(data: `caller`, `call_id`, `latency`)"
    assert entry in text
    scratch(TRACING, text.replace(entry, "(data: `caller`, `call_id`)"))
    assert gaps(TRACING) == ["call_reply field 'latency'"]
    scratch(TRACING, text.replace(entry, "(data: `caller`, `call_id`, `latency`, `hops`)"))
    assert gaps(TRACING) == ["call_reply names undeclared field 'hops'"]
    scratch(TRACING, text.replace(entry, "(latency)"))
    assert gaps(TRACING) == ["call_reply lists no data fields"]
