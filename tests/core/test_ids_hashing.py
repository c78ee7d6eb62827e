"""Identifiers that keep their hash on the instance behave as the plain
frozen dataclasses they were.

``ViewId``, ``Viewstamp``, ``Aid``, ``CallId`` and ``PSetPair`` are
``hashed_once``: the generated ``__hash__`` runs once per instance, and its
value is kept in a slot.  Each is checked here against a twin declared the
same way without the decorator or the slots (and, for ``ViewId``, without
the identity short-cut in ``__eq__``).
"""

import copy
import dataclasses
import pickle

import pytest
from hypothesis import given, strategies as st

from repro.core.viewstamp import ViewId, Viewstamp, hashed_once
from repro.txn.ids import Aid, CallId
from repro.txn.pset import PSetPair


@dataclasses.dataclass(frozen=True, order=True)
class PlainViewId:
    cnt: int
    mid: int


@dataclasses.dataclass(frozen=True, order=True)
class PlainViewstamp:
    id: PlainViewId
    ts: int


@dataclasses.dataclass(frozen=True, order=True)
class PlainAid:
    groupid: str
    viewid: PlainViewId
    seq: int


@dataclasses.dataclass(frozen=True, order=True)
class PlainCallId:
    aid: PlainAid
    seq: int
    subaction: int = 0


@dataclasses.dataclass(frozen=True, order=True)
class PlainPSetPair:
    groupid: str
    vs: PlainViewstamp


small = st.integers(-3, 3)
viewid_args = st.tuples(small, small)
aid_args = st.tuples(st.sampled_from(["g", "h", ""]), viewid_args, small)
MAKERS = {
    "viewid": (
        viewid_args,
        lambda a: ViewId(*a),
        lambda a: PlainViewId(*a),
    ),
    "viewstamp": (
        st.tuples(viewid_args, small),
        lambda a: Viewstamp(ViewId(*a[0]), a[1]),
        lambda a: PlainViewstamp(PlainViewId(*a[0]), a[1]),
    ),
    "aid": (
        aid_args,
        lambda a: Aid(a[0], ViewId(*a[1]), a[2]),
        lambda a: PlainAid(a[0], PlainViewId(*a[1]), a[2]),
    ),
    "callid": (
        st.tuples(aid_args, small, small),
        lambda a: CallId(Aid(a[0][0], ViewId(*a[0][1]), a[0][2]), a[1], a[2]),
        lambda a: PlainCallId(
            PlainAid(a[0][0], PlainViewId(*a[0][1]), a[0][2]), a[1], a[2]
        ),
    ),
    "psetpair": (
        st.tuples(st.sampled_from(["g", "h"]), viewid_args, small),
        lambda a: PSetPair(a[0], Viewstamp(ViewId(*a[1]), a[2])),
        lambda a: PlainPSetPair(a[0], PlainViewstamp(PlainViewId(*a[1]), a[2])),
    ),
}
cases = st.sampled_from(sorted(MAKERS)).flatmap(
    lambda name: st.tuples(st.just(name), st.lists(MAKERS[name][0], min_size=2, max_size=8))
)


@given(cases)
def test_hash_eq_and_order_match_the_generated_methods(case):
    name, argsets = case
    _strategy, make, make_plain = MAKERS[name]
    ids = [make(args) for args in argsets]
    plains = [make_plain(args) for args in argsets]
    for left, plain_left in zip(ids, plains):
        assert hash(left) == hash(plain_left) == hash(left)  # kept, not recomputed
        for right, plain_right in zip(ids, plains):
            assert (left == right) == (plain_left == plain_right)
            assert (left != right) == (plain_left != plain_right)
            assert (left < right) == (plain_left < plain_right)
            assert (left <= right) == (plain_left <= plain_right)
            assert (left > right) == (plain_left > plain_right)
    order = sorted(range(len(ids)), key=ids.__getitem__)
    assert order == sorted(range(len(ids)), key=plains.__getitem__)
    assert len(set(ids)) == len(set(plains))
    table = {value: index for index, value in enumerate(ids)}
    plain_table = {value: index for index, value in enumerate(plains)}
    for args in argsets:  # a fresh, equal instance finds the entry
        assert table[make(args)] == plain_table[make_plain(args)]


@given(viewid_args)
def test_viewid_hashes_as_its_field_tuple(args):
    assert hash(ViewId(*args)) == hash(args)
    viewid = ViewId(*args)
    assert viewid == viewid and not (viewid != viewid)  # the identity short-cut


@given(cases)
def test_replace_copy_and_pickle_round_trip(case):
    name, argsets = case
    original = MAKERS[name][1](argsets[0])
    hash(original)
    for clone in (
        copy.copy(original),
        copy.deepcopy(original),
        pickle.loads(pickle.dumps(original)),
        dataclasses.replace(original),
    ):
        assert clone == original and clone is not original
        assert hash(clone) == hash(original)
        assert {original: 1}[clone] == 1
    # the kept hash stays behind: another process hashes a str differently
    assert original._hash == hash(original)
    for clone in (
        copy.copy(original),
        copy.deepcopy(original),
        pickle.loads(pickle.dumps(original)),
        dataclasses.replace(original),
    ):
        assert not hasattr(clone, "_hash") and not hasattr(clone, "_wire_size")
    last = dataclasses.fields(original)[-1].name
    changed = dataclasses.replace(original, **{last: 99})
    assert changed != original and hash(changed) == hash(
        dataclasses.replace(MAKERS[name][2](argsets[0]), **{last: 99})
    )
    assert dataclasses.asdict(changed)[last] == 99 and "_hash" not in dataclasses.asdict(changed)


def test_an_id_compared_with_a_non_id_is_unequal_not_an_error():
    viewid = ViewId(1, 0)
    aid = Aid("g", viewid, 1)
    for value in (viewid, Viewstamp(viewid, 3), aid, CallId(aid, 1)):
        for other in ((1, 0), None, "v1.0", 1, PlainViewId(1, 0), object()):
            assert value != other and not (value == other)
            assert other != value and not (other == value)
    assert ViewId(1, 0) != Viewstamp(ViewId(1, 0), 0)
    assert ViewId.__eq__(viewid, (1, 0)) is NotImplemented


def test_ids_keep_no_instance_dict():
    viewid = ViewId(2, 1)
    aid = Aid("g", viewid, 3)
    stamp = Viewstamp(viewid, 3)
    for value in (viewid, stamp, aid, CallId(aid, 1), PSetPair("g", stamp)):
        hash(value)
        assert not hasattr(value, "__dict__"), type(value).__name__
        assert "_hash" in type(value).__slots__
        names = {field.name for field in dataclasses.fields(value)}
        assert "_hash" not in names and "_wire_size" not in names  # never sized
    loose = dataclasses.dataclass(frozen=True)(type("Loose", (), {"__annotations__": {"x": int}}))
    with pytest.raises(TypeError, match="__slots__"):
        hashed_once(loose)


def test_ids_stay_frozen():
    viewid = ViewId(2, 1)
    hash(viewid)
    for value, field in ((viewid, "cnt"), (Aid("g", viewid, 1), "seq")):
        for name in (field, "_hash", "_wire_size", "anything"):
            try:
                setattr(value, name, 5)
            except dataclasses.FrozenInstanceError:
                continue
            raise AssertionError(f"assigned {name} on a frozen id")
