"""Figure 3's reply cache holds a call's reply only while the call can still
be re-asked: until its transaction's outcome is booked (DESIGN.md D31).

A duplicate of an undecided call gets the cached reply and runs nothing.
After the outcome, the outcome table answers it, and the caller, which is
no longer waiting for the call, ignores the answer.  A quiet run holds no
reply, and a call whose transaction was decided while it ran caches none.
"""

from repro import EmptyModule, Runtime, procedure, transaction_program
from repro.core import messages as m
from repro.core.events import Aborted
from repro.harness.common import build_kv_system, run_kv_batch

from tests.core.test_read_only_commit import (
    _quiet_kv,
    _records_shipped,
    _resolve,
    _settled,
    _tap,
)
from tests.integration.test_nested_calls import FrontSpec, StoreSpec
from tests.integration.test_send_once import STEADY


def _calls_to(sends, address):
    return [p for _s, d, p in sends if d == address and isinstance(p, m.CallMsg)]


def _answers(sends, source, call_id):
    """What *source* sent in answer to *call_id*, in order."""
    return [
        p
        for s, _d, p in sends
        if s == source
        and isinstance(p, (m.ReplyMsg, m.CallFailedMsg))
        and p.call_id == call_id
    ]


# -- (a) undecided: the cached reply, and nothing run ---------------------------


def test_a_duplicate_of_an_undecided_call_gets_the_cached_reply():
    rt, kv, _clients, driver, spec = _quiet_kv()
    primary = kv.active_primary()
    completed = rt.metrics.counters.get("calls_completed:kv", 0)

    duplicated = []

    def duplicate_the_call(source, payload):
        if (
            source == primary.address
            and isinstance(payload, m.ReplyMsg)
            and not duplicated
        ):
            (call,) = _calls_to(sends, primary.address)
            # Still undecided: the reply has not even reached the caller.
            assert call.aid not in primary.outcomes
            assert primary.server_role.executed[call.aid] == {call.call_id: payload}
            duplicated.append(call)
            return lambda: rt.network.send(call.reply_to, primary.address, call)
        return None

    sends = _tap(rt, duplicate_the_call)
    before = primary.buffer.timestamp
    assert _resolve(rt, driver.call("clients", "update", "kv", spec.key(2)))[0] == "committed"
    rt.quiesce()
    (call,) = duplicated
    assert _calls_to(sends, primary.address) == [call, call]
    first, again = _answers(sends, primary.address, call.call_id)
    assert again is first                               # the identical reply
    assert rt.metrics.counters["calls_completed:kv"] == completed + 1
    # One completed-call record and one committed record: the duplicate ran
    # nothing, and the transaction's outcome emptied the cache.
    assert primary.buffer.timestamp == before + 2
    assert primary.server_role.executed == {}
    assert kv.read_object(spec.key(2)) == 1
    _settled(rt)


# -- (b) decided: the outcome, and nothing run, locked or disturbed -------------


@transaction_program
def _put_then_change_mind(txn, key, value):
    yield txn.call("kv", "put", key, value)
    txn.abort("changed my mind")


def _duplicate_after_outcome(rt, kv, clients, driver, program, args):
    """Run *program* to its end, then re-send its call to the kv primary:
    ``(outcome, the primary's answer to the duplicate)``, having checked
    that the duplicate ran, recorded, locked and disturbed nothing."""
    primary = kv.active_primary()
    sends = _tap(rt)
    outcome = _resolve(rt, driver.call("clients", program, *args))[0]
    rt.quiesce()
    (call,) = _calls_to(sends, primary.address)
    assert call.aid in primary.outcomes
    caller = clients.active_primary().caller
    outstanding = dict(caller._outstanding)
    records, lockers = primary.buffer.timestamp, dict(primary.store.lockers)
    completed = rt.metrics.counters.get("calls_completed:kv", 0)
    rt.network.send(call.reply_to, primary.address, call)
    rt.run_for(10 * STEADY.base_delay)
    rt.quiesce()
    answers = _answers(sends, primary.address, call.call_id)
    assert primary.buffer.timestamp == records              # no CompletedCall
    assert dict(primary.store.lockers) == lockers == {}     # no lock taken
    assert rt.metrics.counters.get("calls_completed:kv", 0) == completed
    assert caller._outstanding == outstanding == {}         # the caller is undisturbed
    assert primary.server_role.executed == {}
    return outcome, answers[-1]


def test_after_a_commit_a_duplicate_hears_committed():
    rt, kv, clients, driver, spec = _quiet_kv()
    outcome, answer = _duplicate_after_outcome(
        rt, kv, clients, driver, "update", ("kv", spec.key(1))
    )
    assert outcome == "committed"
    assert isinstance(answer, m.CallFailedMsg)
    assert answer.reason == "transaction already committed"
    assert kv.read_object(spec.key(1)) == 1             # applied once
    _settled(rt)


def test_after_an_abort_a_duplicate_hears_aborted():
    rt, kv, clients, driver, spec = _quiet_kv()
    clients.register_program("put_then_change_mind", _put_then_change_mind)
    outcome, answer = _duplicate_after_outcome(
        rt, kv, clients, driver, "put_then_change_mind", (spec.key(1), 7)
    )
    assert outcome == "aborted"
    assert isinstance(answer, m.CallFailedMsg)
    assert answer.reason == "transaction already aborted"
    assert kv.read_object(spec.key(1)) == 0
    _settled(rt)


# -- (c) a quiet run holds no reply ---------------------------------------------


def test_a_quiet_run_caches_no_reply():
    rt, _kv, _clients, driver, spec = build_kv_system(seed=31, n_cohorts=3)
    run_kv_batch(rt, driver, spec, 300, read_fraction=0.5, concurrency=4)
    rt.quiesce()
    primaries = [group.active_primary() for group in rt.groups.values()]
    assert all(primaries)
    assert {p.address: p.server_role.executed for p in primaries} == {
        p.address: {} for p in primaries
    }


# -- (d) decided while the call ran: nothing cached ------------------------------


class _CountingFront(FrontSpec):
    @procedure
    def incr_then_count(self, ctx, key):
        """A nested call, then a lock of this group's own."""
        value = yield ctx.call("store", "incr", key, 1)
        count = yield ctx.read_for_update("requests")
        yield ctx.write("requests", count + 1)
        return value


@transaction_program
def _twice_at_front(txn):
    yield txn.call("front", "cached_incr", "k0", 1)
    yield txn.call("front", "incr_then_count", "k1")


def test_a_call_decided_while_it_ran_caches_no_reply():
    """The transaction's second call at ``front`` waits on a nested call
    when the coordinator's abort arrives.  The call still finishes and takes
    a lock, but it
    answers as a call of a decided transaction does: no reply is kept, no
    record re-opens the transaction, its locks are released at once, and
    the abort is shipped once."""
    rt = Runtime(seed=7, link=STEADY)
    front = rt.create_group("front", _CountingFront(), n_cohorts=3)
    rt.create_group("store", StoreSpec(), n_cohorts=3)
    clients = rt.create_group("clients", EmptyModule(), n_cohorts=3)
    clients.register_program("twice_at_front", _twice_at_front)
    driver = rt.create_driver("driver")
    rt.run_for(30.0)
    primary = front.active_primary()
    nested, injected = [], []

    def abort_mid_call(source, payload):
        if (
            source == primary.address
            and isinstance(payload, m.CallMsg)
            and payload.proc == "incr"
        ):
            nested.append(payload)
        if len(nested) == 2 and not injected:
            # The second call's nested call is on the wire: abort the
            # transaction at front, as its coordinator would.
            abort = m.AbortMsg(aid=nested[1].aid)
            injected.append(abort)
            return lambda: rt.network.send(
                clients.active_primary().address, primary.address, abort
            )
        return None

    sends = _tap(rt, abort_mid_call)
    future = driver.call("clients", "twice_at_front")
    _resolve(rt, future)
    assert injected, "the nested call never left front"
    (abort,) = injected
    assert primary.outcomes.get(abort.aid) == "aborted"
    second = [p for p in _calls_to(sends, primary.address) if p.proc == "incr_then_count"]
    assert second

    def answers():
        return [
            a for call in second for a in _answers(sends, primary.address, call.call_id)
        ]

    while not answers():
        rt.run_for(0.25)
    # It finished and answered as on_call answers a decided transaction...
    (answer,) = answers()
    assert isinstance(answer, m.CallFailedMsg)
    assert answer.reason == "transaction already aborted"
    assert abort.aid not in primary.server_role.executed     # ... kept nothing,
    assert abort.aid not in primary.pending                  # re-opened nothing
    assert not any(abort.aid in lockers for lockers in primary.store.lockers.values())
    assert future.result()[0] == "aborted"
    _settled(rt)
    aborts = [
        record for record in _records_shipped(sends, front)
        if isinstance(record, Aborted) and record.aid == abort.aid
    ]
    assert len(aborts) == 1  # the abort, shipped once: no janitor re-abort
