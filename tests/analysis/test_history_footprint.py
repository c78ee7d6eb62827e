"""A run keeps a small constant per committed transaction, and its
end-of-run checks stream.

Two tracemalloc bounds on a seeded kv run, each per committed transaction:
what the run retains once quiet (the slope between a 100- and a
300-transaction run, so fixed costs cancel), and the transient peak of the
end-of-run work -- ``check_serializability`` and both digests.  Each bound
is the measured value plus headroom; a mutant of the layout each guards
must break it.
"""

import gc
import hashlib
import tracemalloc

import pytest

import repro.core.client_role as client_role
import repro.core.server_role as server_role
from repro.harness.common import build_kv_system, run_kv_batch
from repro.perf import report
from repro.txn.ids import Aid, CallId

#: Bytes a quiet run retains per committed transaction: 669 measured, now
#: that no reply outlives its transaction's outcome (1073 while the server
#: primaries cached up to 4 096 replies; DESIGN.md D31).  With an instance
#: ``__dict__`` for the kept hash of each ``Aid`` and ``CallId``, 812; with
#: every reply cached, 1297; before ids were slotted and the ledger compact
#: (dicts of effects, a list of floats per latency series), 1454.
RETAINED_BYTES_PER_TXN = 720

#: The transient peak of ``check_serializability``, ``ledger_digest`` and
#: ``state_digest``, per committed transaction of the 300-transaction run:
#: 92 measured.  A ``ledger_digest`` that joins the ledger's ``repr`` s into
#: one string, 397; at the parent (that digest, and a checker that copies
#: the ledger into a labelled dict-of-dicts graph), 750.
END_OF_RUN_PEAK_PER_TXN = 110


def _joined_ledger_digest(runtime) -> str:
    """``ledger_digest`` as it was before it streamed: every part one
    ``repr`` string, the parts joined.  The oracle for its bytes."""
    ledger = runtime.ledger
    parts = [
        repr(sorted((str(aid), at) for aid, at in ledger.committed.items())),
        repr(sorted((str(aid), why) for aid, why in ledger.aborted.items())),
        repr(
            sorted(
                (str(aid), groupid, sorted(reads), sorted(writes))
                for (aid, groupid), (reads, writes) in ledger.effects.items()
            )
        ),
        repr(
            [
                (ev.groupid, str(ev.viewid), ev.primary, ev.completed_at)
                for ev in ledger.view_changes
            ]
        ),
        repr(runtime.sim.events_processed),
        repr(runtime.sim.now),
    ]
    return hashlib.sha256("\n".join(parts).encode()).hexdigest()


def _joined_state_digest(runtime) -> str:
    parts = []
    for groupid in sorted(runtime.groups):
        primary = runtime.groups[groupid].active_primary()
        if primary is None:
            parts.append(f"{groupid}: no active primary")
            continue
        items = sorted((uid, repr(base)) for uid, (base, _) in primary.store.items())
        parts.append(f"{groupid}: {items!r}")
    return hashlib.sha256("\n".join(parts).encode()).hexdigest()


def _footprint(txns, ledger_digest=report.ledger_digest):
    """Bytes a seed-31 run of *txns* transactions retains once quiet, the
    transient peak of its end-of-run checks, and its committed count."""
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        rt, _kv, _clients, driver, spec = build_kv_system(seed=31, n_cohorts=3)
        run_kv_batch(rt, driver, spec, txns, read_fraction=0.5, concurrency=4)
        rt.quiesce()
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        rt.ledger.check_serializability()
        ledger_digest(rt)
        report.state_digest(rt)
        peak = tracemalloc.get_traced_memory()[1] - kept
    finally:
        tracemalloc.stop()
    return kept - base, peak, len(rt.ledger.committed)


def _per_txn(ledger_digest=report.ledger_digest):
    _footprint(100, ledger_digest)  # warm every cache the first run fills
    kept_small, _peak, committed_small = _footprint(100, ledger_digest)
    kept, peak, committed = _footprint(300, ledger_digest)
    assert committed > committed_small >= 100
    return (kept - kept_small) / (committed - committed_small), peak / committed


def test_a_run_keeps_a_small_constant_per_committed_transaction():
    retained, peak = _per_txn()
    assert retained <= RETAINED_BYTES_PER_TXN, retained
    assert peak <= END_OF_RUN_PEAK_PER_TXN, peak


def test_the_streamed_digests_hash_the_joined_bytes():
    rt, kv, _clients, driver, spec = build_kv_system(seed=31, n_cohorts=3)
    run_kv_batch(rt, driver, spec, 60, read_fraction=0.5, concurrency=4)
    rt.quiesce()
    assert report.ledger_digest(rt) == _joined_ledger_digest(rt)
    assert report.state_digest(rt) == _joined_state_digest(rt)
    # every part non-empty, and a group with no primary
    rt.ledger.record_abort("kv#v9.9#1", "refused")
    rt.ledger.record_abort("kv#v9.9#0", "no reply")
    rt.inject().crash_primary(kv.groupid)
    assert rt.groups[kv.groupid].active_primary() is None
    assert report.ledger_digest(rt) == _joined_ledger_digest(rt)
    assert report.state_digest(rt) == _joined_state_digest(rt)


def _with_a_dict_per_id(cls):
    """*cls* keeping its hash in an instance ``__dict__``, as ids did
    before they were slotted."""

    class Loose(cls):
        def __hash__(self):
            value = self.__dict__.get("_kept")
            if value is None:
                value = self.__dict__["_kept"] = cls.__hash__(self)
            return value

    return Loose


def test_an_instance_dict_per_id_breaks_the_retained_bound(monkeypatch):
    monkeypatch.setattr(client_role, "Aid", _with_a_dict_per_id(Aid))
    monkeypatch.setattr(client_role, "CallId", _with_a_dict_per_id(CallId))
    retained, _peak = _per_txn()
    assert retained > RETAINED_BYTES_PER_TXN, retained


class _KeepEvery(dict):
    """A reply cache whose ``pop`` forgets nothing: every reply stays, as
    in the capped cache before replies were dropped at their outcome."""

    def pop(self, key, default=None):
        return self.get(key, default)


def test_caching_every_reply_breaks_the_retained_bound(monkeypatch):
    init = server_role.ServerRole.__init__

    def keep_every_reply(self, cohort):
        init(self, cohort)
        self.executed = _KeepEvery()

    monkeypatch.setattr(server_role.ServerRole, "__init__", keep_every_reply)
    retained, _peak = _per_txn()
    assert retained > RETAINED_BYTES_PER_TXN, retained


def test_a_joined_string_digest_breaks_the_peak_bound():
    _retained, peak = _per_txn(ledger_digest=_joined_ledger_digest)
    assert peak > END_OF_RUN_PEAK_PER_TXN, peak


@pytest.mark.parametrize("digest", [report.ledger_digest, report.state_digest])
def test_a_digest_of_an_empty_runtime_is_the_empty_parts(digest):
    rt, _kv, _clients, _driver, _spec = build_kv_system(seed=1, n_cohorts=3)
    joined = _joined_ledger_digest if digest is report.ledger_digest else _joined_state_digest
    assert digest(rt) == joined(rt)
