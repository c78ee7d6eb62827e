"""Tests for the one-copy serializability checker."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.serializability import (
    CommittedTransaction,
    SerializabilityChecker,
    SerializabilityViolation,
)

X = ("g", "x")
Y = ("g", "y")


def txn(aid, reads=None, writes=None):
    return CommittedTransaction(
        aid=aid, reads=dict(reads or {}), writes=dict(writes or {})
    )


def test_empty_history_serializable():
    SerializabilityChecker([]).check()


def test_serial_chain_ok():
    history = [
        txn("t1", writes={X: 1}),
        txn("t2", reads={X: 1}, writes={X: 2}),
        txn("t3", reads={X: 2}, writes={X: 3}),
    ]
    SerializabilityChecker(history).check()


def test_wr_edge_built():
    history = [txn("t1", writes={X: 1}), txn("t2", reads={X: 1})]
    graph = SerializabilityChecker(history).graph()
    assert graph["t1"]["t2"] == "wr"


def test_ww_edge_built():
    history = [txn("t1", writes={X: 1}), txn("t2", writes={X: 2})]
    graph = SerializabilityChecker(history).graph()
    assert graph["t1"]["t2"] == "ww"


def test_rw_edge_built():
    history = [txn("t1", writes={X: 1}), txn("t2", reads={X: 0})]
    graph = SerializabilityChecker(history).graph()
    # t2 read version 0; t1 installed version 1: t2 precedes t1.
    assert graph["t2"]["t1"] == "rw"


def test_lost_update_cycle_detected():
    """Both transactions read version 0 and installed 1 and 2: each read
    what the other overwrote -- a classic lost-update anomaly."""
    history = [
        txn("t1", reads={X: 0}, writes={X: 1}),
        txn("t2", reads={X: 0}, writes={X: 2}),
    ]
    # t2 -> t1 (rw: t2 read 0, t1 wrote 1); t1 -> t2 (ww).  Cycle.
    with pytest.raises(SerializabilityViolation):
        SerializabilityChecker(history).check()


def test_write_skew_cycle_detected():
    history = [
        txn("t1", reads={X: 0, Y: 0}, writes={X: 1}),
        txn("t2", reads={X: 0, Y: 0}, writes={Y: 1}),
    ]
    # t1 reads y@0, t2 writes y@1 -> t1 -> t2 (rw); symmetric on x: cycle.
    with pytest.raises(SerializabilityViolation):
        SerializabilityChecker(history).check()


def test_duplicate_version_installation_detected():
    history = [txn("t1", writes={X: 1}), txn("t2", writes={X: 1})]
    with pytest.raises(SerializabilityViolation):
        SerializabilityChecker(history).check()


def test_disjoint_transactions_ok():
    history = [txn("t1", writes={X: 1}), txn("t2", writes={Y: 1})]
    SerializabilityChecker(history).check()


def test_is_serializable_boolean():
    ok = [txn("t1", writes={X: 1})]
    assert SerializabilityChecker(ok).is_serializable()
    bad = [
        txn("t1", reads={X: 0}, writes={X: 1}),
        txn("t2", reads={X: 0}, writes={X: 2}),
    ]
    assert not SerializabilityChecker(bad).is_serializable()


@given(st.integers(2, 12))
def test_any_serial_chain_is_serializable(length):
    history = [
        txn(f"t{i}", reads={X: i - 1}, writes={X: i}) for i in range(1, length)
    ]
    SerializabilityChecker(history).check()


@given(st.permutations(list(range(1, 7))))
def test_serial_chain_order_independent(order):
    """The checker is insensitive to the order transactions are reported."""
    history = [txn(f"t{i}", reads={X: i - 1}, writes={X: i}) for i in order]
    SerializabilityChecker(history).check()


def test_cycle_is_named_with_its_edge_kinds():
    history = [
        txn("t1", reads={X: 0}, writes={X: 1}),
        txn("t2", reads={X: 0}, writes={X: 2}),
    ]
    with pytest.raises(SerializabilityViolation, match="t1 -ww-> t2 -rw-> t1"):
        SerializabilityChecker(history).check()


def test_long_serial_chain_needs_no_recursion():
    """The search keeps its own stack: a 20 000-transaction chain is one
    path 20 000 deep, far past Python's recursion limit."""
    history = [
        txn(f"t{i}", reads={X: i - 1}, writes={X: i}) for i in range(1, 20_001)
    ]
    SerializabilityChecker(history).check()


def serial_order_exists(history):
    """The oracle: some order of the transactions, replayed one at a time
    on one copy, reads every version each read and installs every version
    each installed.  Every install adds one to its key's version, so the
    copy after any set of transactions is the same whatever their order:
    the search is over sets (at most 2**8), not orders."""
    n = len(history)
    dead = set()

    def extend(done, current):
        if done == (1 << n) - 1:
            return True
        if done in dead:
            return False
        for i, t in enumerate(history):
            if done >> i & 1:
                continue
            if any(current.get(key, 0) != v for key, v in t.reads.items()):
                continue
            if any(current.get(key, 0) + 1 != v for key, v in t.writes.items()):
                continue
            if extend(done | 1 << i, {**current, **t.writes}):
                return True
        dead.add(done)
        return False

    return extend(0, {})


@st.composite
def ledger_histories(draw, duplicates=True):
    """At most 8 transactions on at most 4 keys, as the ledger reports them:
    each key's installed versions are contiguous from 1 (two writers may
    claim one version, unless *duplicates* is false; on about half the keys
    each writer installs its own), and a transaction that reads and writes
    a key read the version just below the one it installed."""
    n_txns = draw(st.integers(1, 8))
    keys = [("g", k) for k in "wxyz"[: draw(st.integers(1, 4))]]
    # per transaction and key: 0 untouched, 1 read, 2 write, 3 read and write
    uses = [[draw(st.integers(0, 3)) for _ in keys] for _ in range(n_txns)]
    history = [txn(f"t{i}") for i in range(n_txns)]
    for k, key in enumerate(keys):
        writers = [i for i in range(n_txns) if uses[i][k] >= 2]
        if duplicates and draw(st.booleans()):
            drawn = [draw(st.integers(1, len(writers))) for _ in writers]
        else:
            drawn = draw(st.permutations(range(1, len(writers) + 1)))
        rank = {v: r for r, v in enumerate(sorted(set(drawn)), start=1)}
        for i, v in zip(writers, drawn):
            history[i].writes[key] = rank[v]
            if uses[i][k] == 3:
                history[i].reads[key] = rank[v] - 1
        for i in range(n_txns):
            if uses[i][k] == 1:
                history[i].reads[key] = draw(st.integers(0, len(rank)))
    return history


@settings(max_examples=400, deadline=None)
@given(ledger_histories())
def test_checker_agrees_with_a_serial_order_search(history):
    assert SerializabilityChecker(history).is_serializable() == serial_order_exists(
        history
    )


@settings(max_examples=300, deadline=None)
@given(ledger_histories(duplicates=False))
def test_a_cycle_is_named_by_edges_of_the_graph(history):
    """The check keeps no edge kinds; the cycle it names must still be a
    closed walk of the labelled graph, each hop with its kind there."""
    checker = SerializabilityChecker(history)
    try:
        checker.check()
    except SerializabilityViolation as violation:
        message = str(violation)
    else:
        return
    prefix = "serialization graph has a cycle: "
    assert message.startswith(prefix), message
    hops = message[len(prefix):].split(" ")
    graph = checker.graph()
    assert hops[0] == hops[-1] and len(hops) >= 3
    for before, arrow, after in zip(hops[::2], hops[1::2], hops[2::2]):
        assert arrow == f"-{graph[before][after]}->", message


def test_the_search_finds_the_cycle_in_a_history_reported_in_pieces():
    """A transaction may reach the checker in several pieces (one per
    group, as the ledger streams them), merged by aid."""
    pieces = [
        ("t1", [(X, 0)], []),
        ("t2", [(X, 0)], [(X, 1)]),
        ("t1", [], [(Y, 1)]),
        ("t2", [(Y, 0)], []),
    ]
    checker = SerializabilityChecker.over(lambda: iter(pieces))
    assert checker.graph() == {"t1": {"t2": "rw"}, "t2": {"t1": "rw"}}
    with pytest.raises(SerializabilityViolation, match="t1 -rw-> t2 -rw-> t1"):
        checker.check()
