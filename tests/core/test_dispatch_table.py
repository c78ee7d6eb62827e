"""``Cohort.handle_message`` dispatches by exact type through two tables.

The ``isinstance`` ladder it replaces ended in a ``pragma: no cover`` arm
for message types nobody wired; this file is that arm's replacement: every
concrete message class is accounted for, here, by name.
"""

import dataclasses
import functools
import inspect

import pytest

from repro import BatchConfig, EmptyModule, ProtocolConfig, ReadConfig, Runtime, ScaleConfig
from repro.core import messages as m
from repro.core.cohort import Status
from repro.net.messages import Message
from repro.txn.ids import Aid, CallId

from tests.core.test_cohort import aid_for, build

#: Sent to drivers and client agents, never to a cohort.
DRIVER_ONLY = {
    m.ReadReplyMsg,
    m.ReadRejectMsg,
    m.TxnOutcomeMsg,
    m.BeginTxnReplyMsg,
    m.FinishTxnReplyMsg,
    m.ClientProbeMsg,
}


#: Wired only by the extension that owns them (repro.scale witnesses).
EXTENSION_OWNED = {m.WitnessInstallMsg}

ALL_ARMED = ProtocolConfig(
    batch=BatchConfig(enabled=True),
    reads=ReadConfig(enabled=True),
    scale=ScaleConfig(gossip=True, ack_tree=True, witnesses=1),
)


def _concrete_messages():
    return {
        cls
        for _name, cls in inspect.getmembers(m, inspect.isclass)
        if issubclass(cls, Message) and cls is not Message
    }


def test_every_message_class_is_in_exactly_one_table_or_driver_only():
    _rt, group = build()
    cohort = group.cohort(0)
    any_status, primary_only = set(cohort._any_status), set(cohort._primary_only)
    assert not any_status & primary_only
    assert not (any_status | primary_only) & (DRIVER_ONLY | EXTENSION_OWNED)
    assert (
        any_status | primary_only | DRIVER_ONLY | EXTENSION_OWNED
        == _concrete_messages()
    )


def test_every_message_class_is_in_exactly_one_table_with_every_extension_armed():
    rt = Runtime(seed=3, config=ALL_ARMED)
    group = rt.create_group("g", EmptyModule(), n_cohorts=5)
    for cohort in group.cohorts.values():
        assert len(cohort.extensions) == 5
        any_status, primary_only = set(cohort._any_status), set(cohort._primary_only)
        assert not any_status & primary_only
        assert not (any_status | primary_only) & DRIVER_ONLY
        assert any_status | primary_only | DRIVER_ONLY == _concrete_messages()


def test_recovery_rewires_the_replaced_caller():
    rt, group = build()
    cohort = group.cohort(1)
    before = cohort._any_status[m.ReplyMsg]
    cohort.node.crash()
    cohort.node.recover()
    assert before.__self__ is not cohort.caller
    assert cohort._any_status[m.ReplyMsg].__self__ is cohort.caller


def test_recovery_rewires_the_wrapped_rows_once():
    """Tables are rebuilt on recovery, so every extension wraps its rows
    again -- around the *new* base rows, and exactly one layer each."""
    rt = Runtime(seed=3, config=ALL_ARMED)
    group = rt.create_group("g", EmptyModule(), n_cohorts=5)
    cohort = group.cohort(1)

    def layers(handler):
        """Wrappers between a row and the paper's method (the cohort's, or
        its liveness owner's for ``ImAliveMsg``)."""
        depth = 0
        while isinstance(handler, functools.partial):
            handler, depth = handler.args[0], depth + 1
        assert handler.__self__ in (cohort, cohort.liveness)
        return depth

    wrapped = (m.BufferAckMsg, m.ImAliveMsg, m.BufferMsg)
    before = {cls: cohort._any_status[cls] for cls in wrapped}
    depth = {cls: layers(before[cls]) for cls in wrapped}
    assert depth == {m.BufferAckMsg: 3, m.ImAliveMsg: 2, m.BufferMsg: 1}
    cohort.node.crash()
    cohort.node.recover()
    for cls in wrapped:
        assert cohort._any_status[cls] is not before[cls]
        assert layers(cohort._any_status[cls]) == depth[cls]
    assert cohort._any_status[m.ReadMsg].__self__ is cohort.extensions[2]  # Leases


def _rejected(cohort, message, source="elsewhere"):
    sent = []
    cohort.send = lambda destination, reply: sent.append((destination, reply))
    cohort.handle_message(message, source)
    return sent


def _primary_only_messages(cohort):
    aid = aid_for(cohort)
    call_id = CallId(aid, 1)
    return [
        (
            m.CallMsg(cohort.cur_viewid, call_id, aid, "get", (), reply_to="caller"),
            "caller",
            call_id,
            aid,
        ),
        (m.PrepareMsg(aid, (), coordinator="coord"), "coord", None, aid),
        (m.CommitMsg(aid, (), coordinator="coord"), "coord", None, aid),
        (m.TxnRequestMsg(7, "bump", (), reply_to="driver"), "driver", None, None),
    ]


def test_active_backup_answers_with_its_view():
    _rt, group = build()
    backup = group.cohort(1)
    for message, reply_to, call_id, aid in _primary_only_messages(backup):
        assert _rejected(backup, message) == [
            (
                reply_to,
                m.ViewChangedMsg(
                    call_id=call_id,
                    viewid=backup.cur_viewid,
                    view=backup.cur_view,
                    aid=aid,
                    groupid="g",
                ),
            )
        ]


def test_inactive_primary_answers_without_a_view():
    _rt, group = build()
    primary = group.cohort(0)
    primary.status = Status.UNDERLING
    for message, reply_to, call_id, aid in _primary_only_messages(primary):
        assert _rejected(primary, message) == [
            (
                reply_to,
                m.ViewChangedMsg(
                    call_id=call_id, viewid=None, view=None, aid=aid, groupid="g"
                ),
            )
        ]


def test_other_primary_only_messages_are_dropped_silently_by_a_backup():
    _rt, group = build()
    backup = group.cohort(2)
    aid = aid_for(backup)
    for message in (
        m.AbortMsg(aid),
        m.PrepareOkMsg(aid, "g", committed=False),
        m.CommitAckMsg(aid, "g"),
    ):
        assert _rejected(backup, message) == []


def test_unknown_message_type_raises_in_every_status():
    @dataclasses.dataclass
    class Stray(Message):
        pass

    _rt, group = build()
    for cohort in (group.cohort(0), group.cohort(1)):
        with pytest.raises(NotImplementedError, match="Stray"):
            cohort.handle_message(Stray(), "elsewhere")
    for cohort in (group.cohort(0), group.cohort(1)):
        with pytest.raises(NotImplementedError):
            cohort.handle_message(m.TxnOutcomeMsg(1, "committed", None, None), "x")


def test_subclass_dispatches_as_its_base_and_is_resolved_once():
    @dataclasses.dataclass
    class TaggedProbe(m.ViewProbeMsg):
        tag: str = ""

    @dataclasses.dataclass
    class TaggedCall(m.CallMsg):
        tag: str = ""

    _rt, group = build()
    backup = group.cohort(1)
    (probe_reply,) = _rejected(backup, TaggedProbe(reply_to="prober", tag="x"))
    assert probe_reply[0] == "prober"
    assert isinstance(probe_reply[1], m.ViewProbeReplyMsg)
    assert backup._any_status[TaggedProbe] == backup._any_status[m.ViewProbeMsg]

    aid = Aid("someclient", backup.cur_viewid, 9)
    call = TaggedCall(backup.cur_viewid, CallId(aid, 1), aid, "get", (), "caller")
    ((destination, rejection),) = _rejected(backup, call)
    assert destination == "caller" and isinstance(rejection, m.ViewChangedMsg)
    assert backup._primary_only[TaggedCall] == backup._primary_only[m.CallMsg]
    assert TaggedCall not in group.cohort(2)._primary_only  # per cohort, on sight
