"""Tests for event-record shapes (paper's record vocabulary)."""

import dataclasses

import pytest

from repro.core.events import (
    Aborted,
    Committed,
    Committing,
    CompletedCall,
    Done,
    NewView,
    ObjectEffect,
    ViewEdit,
)
from repro.core.view import View
from repro.core.viewstamp import ViewId, Viewstamp
from repro.txn.ids import Aid, CallId, OutcomeTable

AID = Aid("g", ViewId(1, 0), 1)


def test_record_kinds_match_paper_names():
    assert CompletedCall(aid=AID, call_id=CallId(AID, 1), effects=()).kind == (
        "completed-call"
    )
    assert Committing(aid=AID, plist=()).kind == "committing"
    assert Committed(aid=AID).kind == "committed"
    assert Aborted(aid=AID).kind == "aborted"
    assert Done(aid=AID).kind == "done"
    assert ViewEdit(backups=(1,)).kind == "view-edit"


def test_records_are_frozen():
    record = Aborted(aid=AID)
    with pytest.raises(dataclasses.FrozenInstanceError):
        record.aid = Aid("h", ViewId(1, 0), 2)


def test_object_effect_carries_lock_and_writes():
    effect = ObjectEffect(uid="x", kind="write", writes=((0, 42),),
                          read_version=3)
    assert effect.uid == "x"
    assert effect.writes[-1][1] == 42
    assert effect.read_version == 3


def test_completed_call_effects_tuple():
    effects = (
        ObjectEffect(uid="x", kind="read", read_version=0),
        ObjectEffect(uid="y", kind="write", writes=((1, 9),)),
    )
    record = CompletedCall(aid=AID, call_id=CallId(AID, 1), effects=effects)
    assert len(record.effects) == 2


def test_newview_record_carries_full_state():
    record = NewView(
        view=View(primary=0, backups=(1, 2)),
        history_entries=(Viewstamp(ViewId(1, 0), 0),),
        objects={"x": (5, 1)},
        pending=(),
        outcomes=((AID.groupid, AID.viewid, (AID.seq, AID.seq + 1), ()),),
        committing={},
    )
    assert record.kind == "newview"
    assert record.objects["x"] == (5, 1)
    assert OutcomeTable(record.outcomes)[AID] == "committed"
