"""The outcome table is runs of ``seq`` and reads as the dict it replaced.

``OutcomeTable`` (DESIGN.md D27) keeps section 3.3's ``aid -> outcome``
table as, per coordinator view, two flat lists of runs of ``seq``.  The
property holds it to a plain dict under writes in any order: out-of-order
``seq``s, several coordinator views, gaps, runs written forwards and
backwards, and outcome rewrites.  After every step ``get``, ``in``, ``[aid]``
and ``items()`` answer what the dict answers; the wire form is exactly the
maximal runs of the dict's ``seq``s, sorted by key, and rebuilds the table;
patching a copy taken at the last sizing with ``written()`` gives the whole
table; and ``wire_size()`` is ``estimate_size`` of the wire form.
"""

from hypothesis import given, settings, strategies as st

from repro.core.viewstamp import ViewId
from repro.net.messages import estimate_size
from repro.txn.ids import Aid, OutcomeTable

VIEWS = [("g", ViewId(1, 0)), ("g", ViewId(2, 1)), ("kv", ViewId(1, 0))]
OUTCOMES = ["committed", "aborted"]

views = st.sampled_from(VIEWS)
outcomes = st.sampled_from(OUTCOMES)
steps = st.one_of(
    st.tuples(st.just("set"), views, st.integers(0, 40), outcomes),
    st.tuples(
        st.just("run"), views, st.integers(0, 40), st.integers(1, 12), outcomes, st.booleans()
    ),
    st.tuples(st.just("size")),
)


def _runs(seqs):
    """Flat half-open bounds of the maximal runs of *seqs*."""
    bounds = []
    for seq in sorted(seqs):
        if bounds and bounds[-1] == seq:
            bounds[-1] = seq + 1
        else:
            bounds += [seq, seq + 1]
    return tuple(bounds)


def _wire(oracle):
    """The wire form *oracle* should have: its runs per coordinator view."""
    keys = sorted({(aid.groupid, aid.viewid) for aid in oracle})
    return tuple(
        (groupid, viewid)
        + tuple(
            _runs(
                aid.seq
                for aid, value in oracle.items()
                if (aid.groupid, aid.viewid) == (groupid, viewid) and value == outcome
            )
            for outcome in OUTCOMES
        )
        for groupid, viewid in keys
    )


def _writes(step):
    if step[0] == "set":
        _kind, (groupid, viewid), seq, outcome = step
        return [(Aid(groupid, viewid, seq), outcome)]
    _kind, (groupid, viewid), lo, length, outcome, forwards = step
    seqs = range(lo, lo + length)
    return [(Aid(groupid, viewid, seq), outcome) for seq in (seqs if forwards else seqs[::-1])]


def _check(table, oracle, copy):
    wire = table.wire()
    assert wire == _wire(oracle)
    assert sorted(table.items()) == sorted(oracle.items())
    for groupid, viewid in VIEWS + [("absent", ViewId(1, 0))]:
        for seq in range(-1, 54):
            aid = Aid(groupid, viewid, seq)
            assert table.get(aid) == oracle.get(aid)
            assert (aid in table) == (aid in oracle)
            if aid in oracle:
                assert table[aid] == oracle[aid]
    assert OutcomeTable(wire).wire() == wire
    assert sorted(OutcomeTable(wire).items()) == sorted(oracle.items())
    if copy is not None:
        patched = OutcomeTable(copy)
        patched.patch(table.written())
        assert patched.wire() == wire
    assert OutcomeTable(wire).wire_size() == estimate_size(wire)


@settings(max_examples=200, deadline=None)
@given(st.lists(steps, max_size=40))
def test_the_table_is_the_dict_it_replaced(trace):
    table, oracle = OutcomeTable(), {}
    copy = None  # the wire form at the last sizing; None while untracked
    for step in trace:
        if step[0] == "size":
            assert table.wire_size() == estimate_size(table.wire())
            copy = table.wire()
        else:
            for aid, outcome in _writes(step):
                table[aid] = outcome
                oracle[aid] = outcome
        assert (table.written() is None) == (copy is None)
        _check(table, oracle, copy)


def test_a_view_decided_in_order_is_one_run():
    """What a fault-free coordinator view leaves: seqs 1..n, one run."""
    table = OutcomeTable()
    for seq in range(1, 4801):
        table[Aid("clients", ViewId(1, 0), seq)] = "committed"
    assert table.wire() == (("clients", ViewId(1, 0), (1, 4801), ()),)


def test_a_rewrite_splits_and_rejoins_a_run():
    table = OutcomeTable()
    aids = [Aid("g", ViewId(1, 0), seq) for seq in range(5)]
    for aid in aids:
        table[aid] = "committed"
    table[aids[2]] = "aborted"
    assert table.wire() == (("g", ViewId(1, 0), (0, 2, 3, 5), (2, 3)),)
    table[aids[2]] = "committed"
    assert table.wire() == (("g", ViewId(1, 0), (0, 5), ()),)


def test_a_diff_patches_runs_over_the_receivers_table():
    """A receiver's rewritten and missing aids both come from the diff."""
    primary, backup = OutcomeTable(), OutcomeTable()
    aids = [Aid("g", ViewId(1, 0), seq) for seq in range(6)]
    for table in (primary, backup):
        for aid in aids[:3]:
            table[aid] = "committed"
    primary.wire_size()  # the tracking start
    primary[aids[1]] = "aborted"
    for aid in aids[3:]:
        primary[aid] = "committed"
    assert primary.written() == (("g", ViewId(1, 0), (3, 6), (1, 2)),)
    backup.patch(primary.written())
    assert backup.wire() == primary.wire() == (("g", ViewId(1, 0), (0, 1, 2, 6), (1, 2)),)
    assert backup.written() == ()
