"""The compiled sizers against the frozen reflective estimator.

``tests/net/_reference_sizing.py`` is the estimator as it was before sizes
were compiled per class.  Every simulated byte count in EXPERIMENTS.md and
the benchmark's exact metrics was produced by it, so the compiled sizers
must reproduce it for every message and record class, whatever the fields
hold -- and must never remember a size that can still change.
"""

import collections
import dataclasses
import enum
import importlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import events, messages as core_messages
from repro.core.events import EventRecord, NewView, ObjectEffect
from repro.core.messages import BufferMsg, CallMsg, ReplyMsg
from repro.core.view import View
from repro.core.viewstamp import History, ViewId, Viewstamp
from repro.net.messages import Message, estimate_size
from repro.txn.ids import Aid, CallId
from repro.txn.pset import PSet, PSetPair

from tests.net import _reference_sizing as reference

MESSAGE_MODULES = [core_messages] + [
    importlib.import_module(f"repro.baselines.{name}")
    for name in ("isis_like", "pair", "virtual_partitions", "voting")
]


def _subclasses(modules, base):
    found = {
        obj
        for module in modules
        for obj in vars(module).values()
        if isinstance(obj, type) and issubclass(obj, base) and obj is not base
    }
    return sorted(found, key=lambda cls: cls.__qualname__)


MESSAGE_CLASSES = _subclasses(MESSAGE_MODULES, Message)
RECORD_CLASSES = _subclasses([events], EventRecord)

# -- field values -------------------------------------------------------------

text = st.text(max_size=8)
viewids = st.builds(ViewId, st.integers(0, 9), st.integers(0, 9))
viewstamps = st.builds(Viewstamp, viewids, st.integers(0, 10**6))
aids = st.builds(Aid, text, viewids, st.integers(0, 99))
callids = st.builds(CallId, aids, st.integers(0, 99), st.integers(0, 3))
pairs = st.builds(PSetPair, text, viewstamps)
views = st.lists(st.integers(0, 9), min_size=1, max_size=5, unique=True).map(
    lambda mids: View(mids[0], tuple(mids[1:]))
)
scalars = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(allow_nan=False),
    text, st.binary(max_size=8),
)
hashables = st.one_of(scalars, viewids, viewstamps, aids, callids, pairs)


def _nest(children):
    effects = st.builds(
        ObjectEffect,
        uid=text,
        kind=st.sampled_from(["read", "write"]),
        writes=st.lists(st.tuples(st.integers(0, 3), children), max_size=3).map(tuple),
        read_version=st.none() | st.integers(0, 9),
    )
    return st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.frozensets(hashables, max_size=3),
        st.dictionaries(hashables, children, max_size=3),
        effects,
    )


values = st.recursive(st.one_of(hashables, views), _nest, max_leaves=12)


def instances(cls):
    """*cls* with every field drawn from ``values``: sizing never looks at
    annotations, so neither does the test."""
    return st.builds(
        cls, **{field.name: values for field in dataclasses.fields(cls)}
    )


# -- new size == reference size -----------------------------------------------


@pytest.mark.parametrize("cls", MESSAGE_CLASSES, ids=lambda cls: cls.__name__)
@settings(max_examples=25, deadline=None)
@given(st.data())
def test_message_sizes_match_reference(cls, data):
    message = data.draw(instances(cls))
    assert message.byte_size() == reference.message_byte_size(message)
    assert message.byte_size() == reference.message_byte_size(message)  # and again


@pytest.mark.parametrize("cls", RECORD_CLASSES, ids=lambda cls: cls.__name__)
@settings(max_examples=25, deadline=None)
@given(st.data())
def test_record_sizes_match_reference(cls, data):
    record = data.draw(instances(cls))
    assert estimate_size(record) == reference.estimate_size(record)
    assert estimate_size(record) == reference.estimate_size(record)  # interned now
    assert estimate_size((7, record)) == reference.estimate_size((7, record))


def test_the_oracle_covers_every_class():
    assert len(MESSAGE_CLASSES) >= 55 and BufferMsg in MESSAGE_CLASSES
    assert len(RECORD_CLASSES) == 7 and NewView in RECORD_CLASSES


@given(values)
def test_any_value_matches_reference(value):
    assert estimate_size(value) == reference.estimate_size(value)


def test_newview_with_its_dicts():
    vid = ViewId(2, 1)
    aid = Aid("clients", vid, 4)
    record = NewView(
        view=View(1, (0, 2)),
        history_entries=(Viewstamp(ViewId(1, 0), 9), Viewstamp(vid, 0)),
        objects={"k1": ("v", 3), "k2": (None, 0)},
        pending=((Viewstamp(vid, 3), events.Aborted(aid)),),
        outcomes=(("clients", vid, (4, 5), ()), ("kv", ViewId(1, 0), (1, 3, 7, 8), (3, 4))),
        committing={aid: (("kv",), (PSetPair("kv", Viewstamp(vid, 3)),))},
    )
    expected = reference.estimate_size(record)
    assert estimate_size(record) == expected == estimate_size(record)
    message = BufferMsg(viewid=vid, records=((1, record),), primary_ts=1)
    assert message.byte_size() == reference.message_byte_size(message)


# -- the precedence rule --------------------------------------------------------


class Colour(enum.IntEnum):
    RED = 1


class Tag(str):
    pass


Point = collections.namedtuple("Point", "x y")


class Sized:
    def byte_size(self):
        return 123


class Opaque:
    pass


@pytest.mark.parametrize(
    "value",
    [
        Colour.RED, Tag("abc"), Point(1, "xy"), collections.OrderedDict(a=1),
        collections.defaultdict(list, {1: [2]}), bytearray(b"ab"), Sized(),
        Opaque(), History([Viewstamp(ViewId(1, 0), 3)]), 1.5, True, None,
        PSet([PSetPair("g", Viewstamp(ViewId(1, 0), 3))]),
    ],
    ids=lambda value: type(value).__name__,
)
def test_subclasses_and_opaque_objects_size_as_before(value):
    assert estimate_size(value) == reference.estimate_size(value)


def test_a_dataclass_is_its_fields_whatever_byte_size_it_defines():
    view = View(primary=0, backups=(1, 2, 3, 4))
    assert estimate_size(view) == reference.estimate_size(view) == 8 + 4 + 4 * 8
    assert view.byte_size() == estimate_size(view)
    pset = PSet([PSetPair("kv", Viewstamp(ViewId(1, 0), 3))])
    assert pset.byte_size() == estimate_size(pset) == 4 + 2 + 16 + 8
    assert not hasattr(PSetPair, "byte_size")


def test_a_nested_message_pays_no_second_header():
    inner = core_messages.AbortMsg(aid=Aid("g", ViewId(1, 0), 1))
    outer = ReplyMsg(call_id=None, result=inner, pset_pairs=())
    assert outer.byte_size() == reference.message_byte_size(outer)
    assert outer.byte_size() == 32 + 1 + (inner.byte_size() - 32) + 4 + 1


# -- interning -------------------------------------------------------------------


def test_interned_types_are_frozen_scalar_values_and_records_only():
    interned = {
        cls for cls in (ViewId, Viewstamp, Aid, CallId, PSetPair, ObjectEffect,
                        View, *RECORD_CLASSES, *MESSAGE_CLASSES)
        if hasattr(cls, "_wire_size")
    }
    assert interned == {ViewId, Aid, *RECORD_CLASSES}
    assert all(cls.__dataclass_params__.frozen for cls in interned)


def test_interning_a_mutable_class_is_refused():
    @dataclasses.dataclass
    class Mutable:
        items: list
        _wire_size = None

    with pytest.raises(TypeError, match="not frozen"):
        estimate_size(Mutable([1]))


def test_interned_size_is_kept_on_the_instance_not_in_the_fields():
    aid = Aid("group", ViewId(3, 1), 7)
    assert not hasattr(aid, "_wire_size")  # an unset slot until sized
    assert estimate_size(aid) == 5 + 16 + 8 == aid._wire_size
    assert dataclasses.fields(aid) == dataclasses.fields(Aid)
    assert aid == Aid("group", ViewId(3, 1), 7) and hash(aid) == hash(
        Aid("group", ViewId(3, 1), 7)
    )


@given(st.lists(values, max_size=4), st.dictionaries(text, values, max_size=3),
       values, values)
def test_mutating_a_sized_message_changes_its_size(args, piggyback, extra, more):
    """Nothing mutable is ever interned: size, mutate, size again."""
    aid = Aid("g", ViewId(1, 0), 1)
    call = CallMsg(
        viewid=aid.viewid, call_id=CallId(aid, 1), aid=aid, proc="put",
        args=args, reply_to="addr", piggyback=piggyback,
    )
    before = call.byte_size()
    assert before == reference.message_byte_size(call)
    args.append(extra)
    piggyback["a fresh key"] = more
    after = call.byte_size()
    assert after == reference.message_byte_size(call)
    assert after == before + estimate_size(extra) + 11 + estimate_size(more)


def test_mutating_a_container_of_interned_values():
    vs = Viewstamp(ViewId(1, 0), 5)
    pairs_list = [PSetPair("kv", vs)]
    reply = ReplyMsg(call_id=None, result={"k": [1]}, pset_pairs=pairs_list)
    before = reply.byte_size()
    pairs_list.append(PSetPair("other", vs))
    reply.result["k"].append(2)
    assert reply.byte_size() == reference.message_byte_size(reply)
    assert reply.byte_size() == before + (5 + 24) + 8


# -- the buffer's non-wire hint ----------------------------------------------------


def test_buffer_msg_without_the_hint_sizes_by_walking():
    vid = ViewId(1, 0)
    records = tuple((ts, events.Aborted(Aid("g", vid, ts))) for ts in range(1, 6))
    message = BufferMsg(viewid=vid, records=records, primary_ts=5)
    assert message.records_bytes is None
    assert message.byte_size() == reference.message_byte_size(message)


def test_buffer_msg_hint_replaces_the_walk_and_is_not_wire_data():
    vid = ViewId(1, 0)
    records = tuple((ts, events.Aborted(Aid("g", vid, ts))) for ts in range(1, 6))
    message = BufferMsg(viewid=vid, records=records, primary_ts=5, sent_at=2.0)
    walked = message.byte_size()
    message.records_bytes = estimate_size(records)
    assert message.byte_size() == walked == reference.message_byte_size(message)
    assert "records_bytes" not in {f.name for f in dataclasses.fields(BufferMsg)}
    message.records_bytes += 1000  # the hint is trusted, not re-derived
    assert message.byte_size() == walked + 1000
