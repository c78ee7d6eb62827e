"""The gstate image and the outcome table know their own wire size.

A newview record carries the group's object image and its outcome table;
``activate_as_primary`` hands the image's size to the record (``NewView``'s
``_size_hints``) instead of walking thousands of entries per view change.
That size is kept incrementally (``SizedDict``): the size as of the last
sizing plus the entries written since.  The outcome table's wire form is
runs of ``seq`` (DESIGN.md D27), few enough to be sized as it is, so it has
no hint.  A size that is off by one entry moves ``bytes_per_txn`` on every
fault workload, so the property here is exactness: after any sequence of
creates, locks, installs, backup commits, outcome writes (overwrites
included) and restores, the hinted size and the outcome table's
``wire_size()`` equal ``estimate_size`` of what the record would carry, and
a record built with the hint interns the same ``_wire_size`` as one built
without it.
"""

from hypothesis import given, settings, strategies as st

from repro.core.events import CompletedCall, NewView, ObjectEffect
from repro.core.viewstamp import ViewId, Viewstamp
from repro.net.messages import estimate_size
from repro.txn.ids import Aid, CallId, OutcomeTable
from repro.txn.locks import LockManager
from repro.txn.objects import READ, WRITE, ObjectStore

_VID = ViewId(1, 0)
AIDS = [Aid("g", _VID, seq) for seq in range(4)]
UIDS = ["a", "b", "c", "dd"]

values = st.one_of(
    st.none(),
    st.integers(),
    st.text(max_size=6),
    st.tuples(st.integers(), st.text(max_size=3)),
)
aids = st.sampled_from(AIDS)
uids = st.sampled_from(UIDS)
steps = st.one_of(
    st.tuples(st.just("create"), uids, values),
    st.tuples(st.just("lock"), uids, aids, st.sampled_from([READ, WRITE])),
    st.tuples(st.just("write"), uids, aids, values),
    st.tuples(st.just("install"), aids),
    st.tuples(st.just("discard"), aids),
    st.tuples(st.just("install_calls"), aids, st.lists(st.tuples(uids, values), max_size=3)),
    st.tuples(st.just("outcome"), aids, st.sampled_from(["committed", "aborted"])),
    st.tuples(st.just("restore")),
    st.tuples(st.just("size")),
)


class _Replica:
    """What a cohort keeps of the gstate: a store, its locks, outcomes."""

    def __init__(self):
        self.store = ObjectStore({"a": (0, 0)})
        self.locks = LockManager(self.store)
        self.outcomes = OutcomeTable()
        self.calls = 0

    def apply(self, step, taken):
        kind = step[0]
        if kind == "create" and step[1] not in self.store:
            self.store.create(step[1], step[2])
        elif kind == "lock":
            self.locks.acquire(step[1], step[2], step[3])
        elif kind == "write" and self.locks.holders_of(step[1]).get(step[2]) == WRITE:
            self.locks.record_write(step[1], step[2], step[3])
        elif kind == "install":
            self.locks.install(step[1])
        elif kind == "discard":
            self.locks.discard(step[1])
        elif kind == "install_calls":
            self.calls += 1
            effects = tuple(
                ObjectEffect(uid, WRITE, writes=((0, value),)) for uid, value in step[2]
            )
            call = CompletedCall(step[1], CallId(step[1], self.calls), effects)
            self.store.install_calls({Viewstamp(_VID, self.calls): call}, set())
        elif kind == "outcome":
            self.outcomes[step[1]] = step[2]
        elif kind == "restore" and taken:
            # Install the last newview record taken, as a backup does.
            record = taken[-1]
            self.store.restore(record.objects, record.objects_bytes)
            self.locks.reset()
            self.outcomes = OutcomeTable()
            self.outcomes.patch(record.outcomes)

    def newview(self):
        """The record ``activate_as_primary`` would build, with hints."""
        return NewView(
            view=None,
            history_entries=(),
            objects=self.store.snapshot(),
            pending=(),
            outcomes=self.outcomes.wire(),
            committing={},
        ).with_sizes(self.store.wire_size())

    def check(self):
        assert self.store.wire_size() == estimate_size(self.store.snapshot())
        assert self.outcomes.wire_size() == estimate_size(self.outcomes.wire())


@settings(max_examples=300, deadline=None)
@given(st.lists(steps, max_size=40))
def test_hinted_sizes_are_exact(trace):
    """Two replicas see the same steps: one is sized after every step, the
    other only at ``size`` steps, so writes also pile up between sizings."""
    eager, lazy = _Replica(), _Replica()
    taken = []
    for step in trace:
        eager.apply(step, taken)
        lazy.apply(step, taken)
        eager.check()
        if step[0] == "size":
            hinted = lazy.newview()
            plain = NewView(
                view=None,
                history_entries=(),
                objects=hinted.objects,
                pending=(),
                outcomes=hinted.outcomes,
                committing={},
            )
            assert estimate_size(hinted) == estimate_size(plain)
            assert hinted._wire_size == plain._wire_size
            taken.append(hinted)
    lazy.check()
    assert lazy.store.snapshot() == eager.store.snapshot()
    assert lazy.outcomes.wire() == eager.outcomes.wire()


def test_an_overwrite_is_resized():
    """The directed form of the property's sharpest case: an entry present
    at the last sizing is overwritten by a value of another size."""
    store = ObjectStore({"a": (0, 0)})
    assert store.get("a")[1:3] == (0, 0)
    assert store.wire_size() == estimate_size({})  # initial entries are not stored
    store.install("a", "a much longer value")
    assert store.wire_size() == estimate_size({"a": ("a much longer value", 1)})
    store.install("a", "shorter")
    assert store.wire_size() == estimate_size({"a": ("shorter", 2)})
    outcomes = OutcomeTable((("g", _VID, (), (0, 1)),))  # AIDS[0] aborted
    outcomes[AIDS[0]] = "committed"
    outcomes[AIDS[1]] = "committed"
    assert outcomes.wire() == (("g", _VID, (0, 2), ()),)
    assert outcomes.wire_size() == estimate_size(outcomes.wire())


def test_snapshot_and_restore_copy():
    """Restoring copies the record's image; snapshotting copies the store's."""
    store = ObjectStore({"a": (0, 0)})
    store.install("a", 1)
    image = store.snapshot()
    store.install("a", 2)
    assert image == {"a": (1, 1)}
    other = ObjectStore({"a": (0, 0)})
    other.restore(image, estimate_size(image))
    other.install("a", 3)
    assert image == {"a": (1, 1)}
    assert other.get("a")[1:3] == (3, 2)
    assert other.wire_size() == estimate_size(other.snapshot())
