"""A newview diff installs what the full record installs (DESIGN.md D25).

A model group runs the real init-view builder
(``ViewChangeController.build_init_view``), primary choice
(``_choose_primary``), newview builder (``Cohort._newview``) and install
(``Cohort.install_gstate``) on real stores and outcome tables.  Its primary
writes with records (an install, an outcome) and without (an ``ensure`` of
an absent uid, a commit point's outcome); its backups apply a prefix of the
view's records each (lag points); any cohort may crash, losing its gstate,
or miss a view change; and a chosen primary may be preempted before it
activates, while the old primary, if it did not join, goes on.  Every joiner
of an activated view installs either the full record or the diff the
builder cut for it, and the property is that the two cannot be told apart:
image, outcome table, pending and committing equal the full record's, entry
for entry, and the sizes the tables report equal ``estimate_size`` of what
they hold.  After every step, every cohort's store also holds only entries
that differ from the initial objects (DESIGN.md D26), and its image's hint
is exact even between sizings.
"""

from types import SimpleNamespace

from hypothesis import example, given, settings, strategies as st

from repro.core import messages as m
from repro.core.cohort import Cohort
from repro.core.view import View
from repro.core.view_change import ViewChangeController, _choose_primary
from repro.core.viewstamp import History, ViewId, Viewstamp
from repro.net.messages import SizedDict, estimate_size
from repro.txn.ids import Aid, OutcomeTable
from repro.txn.locks import LockManager
from repro.txn.objects import ObjectStore

N = 4
V0 = ViewId(0, 0)
INITIAL = {"a": (0, 0), "b": (0, 0)}
UIDS = ["a", "b", "c", "dd"]
AIDS = [Aid("g", V0, seq) for seq in range(5)]


class _Cohort:
    """The part of a cohort the builder and the install read and write."""

    _newview = Cohort._newview
    gstate_record = Cohort.gstate_record
    install_gstate = Cohort.install_gstate

    def __init__(self, mid):
        self.mymid = mid
        self.crash()  # the gstate every cohort starts with
        self.up_to_date = True
        self.history = History([Viewstamp(V0, 0)])
        self.led = V0 if mid == 0 else None

    def crash(self):
        self.store = ObjectStore(INITIAL)
        self.lockmgr = LockManager(self.store)
        self.outcomes = OutcomeTable()
        self.pending, self.committing = {}, {}
        self._written_since = None
        self.up_to_date = False
        self.led = None  # the view it is primary of (activated or opened)
        self.applied = 0  # records of the current view applied, as a backup
        self.in_view = False  # a backup that receives the current view's records

    def acceptance(self, viewid):
        if not self.up_to_date:
            return m.AcceptMsg(viewid, self.mymid, True, None, False, V0)
        led = self.led is not None
        view = View(primary=self.mymid if led else N, backups=())  # its cur_view
        return m.AcceptMsg(viewid, self.mymid, False, self.history.latest, led, None, view)


def _apply(cohort, record):
    kind, key, value = record
    if kind == "install":
        cohort.store.install(key, value)
    else:
        cohort.outcomes[key] = value


class _Group:
    def __init__(self):
        self.cohorts = [_Cohort(mid) for mid in range(N)]
        for cohort in self.cohorts[1:]:
            cohort.in_view = True
        self.primary = self.cohorts[0]
        self.viewid = V0  # the view the primary is active in
        self.records = []  # of that view: records[i] is ts i + 2
        self.minted = 0
        self.diff_installs = 0

    def write(self, record):
        """The primary adds a record and applies it."""
        primary = self.primary
        if primary is None:
            return
        self.records.append(record)
        _apply(primary, record)
        primary.history.advance(self.viewid, len(self.records) + 1)

    def unrecorded(self, kind, key):
        """A write at the primary that no record carries."""
        if self.primary is None:
            return
        if kind == "ensure":
            self.primary.store.ensure(key)
        else:
            self.primary.outcomes[key] = "committed"  # ClientRole._commit_point

    def deliver(self, mid, count):
        cohort = self.cohorts[mid]
        if not cohort.in_view or self.primary is None:
            return
        for record in self.records[cohort.applied : cohort.applied + count]:
            cohort.applied += 1
            _apply(cohort, record)
            cohort.history.advance(self.viewid, cohort.applied + 1)

    def crash(self, mid):
        cohort = self.cohorts[mid]
        cohort.crash()
        if cohort is self.primary:
            self.primary = None

    def view_change(self, joined, activate):
        joiners = [self.cohorts[mid] for mid in sorted(joined)]
        self.minted += 1
        viewid = ViewId(self.minted, 0)
        responses = {c.mymid: c.acceptance(viewid) for c in joiners}
        normals = [a for a in responses.values() if not a.crashed]
        if not normals:
            return
        mid = _choose_primary(normals, max(a.viewstamp for a in normals))
        primary = self.cohorts[mid]
        view = View(primary=mid, backups=tuple(c.mymid for c in joiners if c is not primary))
        init = ViewChangeController.build_init_view(
            SimpleNamespace(_responses=responses, cohort=SimpleNamespace(max_viewid=viewid)), view
        )
        for cohort in joiners:  # each stops working in the view it was in
            cohort.in_view = False
            if cohort is self.primary:
                self.primary = None
        primary.history.open_view(viewid)
        primary.led = viewid
        if not activate:
            return  # preempted: the joiners wait, an old primary that did not join goes on
        full, diffs = primary._newview(view, init.viewstamps)
        primary._written_since = Viewstamp(viewid, 1)
        primary.history.advance(viewid, 1)
        for cohort in self.cohorts:
            cohort.in_view = False
        for cohort in joiners:
            if cohort is primary:
                continue
            record = diffs.get(cohort.mymid, full)
            self.diff_installs += record is not full
            cohort.install_gstate(record)  # as install_newview does
            cohort.history.advance(viewid, 1)
            cohort._written_since = Viewstamp(viewid, 1)
            cohort.up_to_date, cohort.led, cohort.applied, cohort.in_view = True, None, 0, True
            _check_installed(cohort, full)
        self.primary, self.viewid, self.records = primary, viewid, []


def _check_installed(cohort, full):
    image, outcomes = cohort.store.snapshot(), cohort.outcomes.wire()
    assert image == full.objects
    assert outcomes == full.outcomes
    assert cohort.gstate_record(None).pending == full.pending
    assert cohort.committing == full.committing
    assert cohort.store.lockers == {}
    # Right after an install nothing is written since its sizing, so these
    # read the hinted sizes and start nothing over.
    assert cohort.store.wire_size() == estimate_size(image)
    assert cohort.outcomes.wire_size() == estimate_size(outcomes)


mids = st.integers(0, N - 1)
steps = st.one_of(
    st.tuples(st.just("install"), st.sampled_from(UIDS), st.integers(0, 9)),
    st.tuples(st.just("outcome"), st.sampled_from(AIDS), st.sampled_from(["committed", "aborted"])),
    st.tuples(st.just("ensure"), st.sampled_from(UIDS + ["absent"])),
    st.tuples(st.just("commit_point"), st.sampled_from(AIDS)),
    st.tuples(st.just("deliver"), mids, st.integers(1, 4)),
    st.tuples(st.just("crash"), mids),
    st.tuples(st.just("view_change"), st.frozensets(mids, min_size=1), st.booleans()),
)


def _hint(table):
    """What ``table.wire_size()`` would answer now, got from a copy so the
    table's written-since set is not started over; None while untracked."""
    if table.written() is None:
        return None
    probe = SizedDict.__new__(SizedDict)
    dict.update(probe, table)
    probe._bytes, probe._was = table._bytes, dict(table._was)
    return probe.wire_size()


def _check_stores(group):
    for cohort in group.cohorts:
        stored = cohort.store.snapshot()
        for uid, entry in stored.items():
            # No stored entry equals its initial entry: an initial object is
            # stored only once an install has bumped its version.
            assert uid not in INITIAL or entry[1] > INITIAL[uid][1], (cohort.mymid, uid, entry)
        assert _hint(cohort.store._image) in (None, estimate_size(stored))


def _run(trace):
    group = _Group()
    for step in trace:
        kind = step[0]
        if kind in ("install", "outcome"):
            group.write(step)
        elif kind in ("ensure", "commit_point"):
            group.unrecorded(kind, step[1])
        elif kind == "deliver":
            group.deliver(step[1], step[2])
        elif kind == "crash":
            group.crash(step[1])
        else:
            group.view_change(step[1], step[2])
        _check_stores(group)
    return group


EVERY = frozenset(range(N))


@settings(max_examples=600, deadline=None)
@given(st.lists(steps, max_size=40))
# 2, primary of view 1, writes with no record; 0 opens view 2 and never
# activates it; 0 leads view 3, whose newview 2 gets in full: a former
# primary may hold writes no diff would undo.
@example([
    ("crash", 0),
    ("view_change", frozenset([0, 2]), True),
    ("ensure", "c"),
    ("view_change", frozenset([0]), False),
    ("view_change", frozenset([0, 2]), True),
])
# 1 opens a view it never activates while 2 applies more of the old view's
# records: 1 does not know 2's viewstamp, so 2 is no diff receiver.
@example([
    ("view_change", EVERY, True),
    ("install", "a", 1),
    ("deliver", 1, 1),
    ("deliver", 2, 1),
    ("view_change", frozenset([1]), False),
    ("install", "c", 5),
    ("deliver", 2, 1),
    ("view_change", frozenset([1, 2]), True),
])
def test_a_diff_installs_what_the_full_record_installs(trace):
    _run(trace)


def test_the_model_ships_diffs():
    """The property is not vacuous: a lagging backup of a second view change
    gets a diff, and it carries the primary's unrecorded writes too."""
    group = _run(
        [
            ("view_change", EVERY, True),  # tables untracked: full records
            ("install", "a", 1),
            ("ensure", "absent"),
            ("commit_point", AIDS[0]),
            ("deliver", 1, 1),
            ("install", "b", 2),
            ("deliver", 2, 2),
            ("view_change", EVERY, True),
        ]
    )
    assert group.diff_installs == 3
    assert group.cohorts[1].store.version("absent") == 0
    assert group.cohorts[1].outcomes[AIDS[0]] == "committed"
