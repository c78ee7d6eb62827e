#!/usr/bin/env python3
"""Nested transactions: retry a call instead of aborting everything (3.6).

"Subactions are an economical way to cope with view changes...  we need to
abort and redo a call subaction only when the view changes; thus we do
extra work only when the problem arises."

Two identical workloads run against a KV group whose primary is killed
repeatedly: one with flat (one-level) transactions, one with subactions.
A call in flight at a crash follows the new primary under the same call
id, so a plain crash aborts nothing.  Here each crash comes just after the
primary's replies to the client group were lost while the calls' records
reached its backups: the new primary refuses those call ids ("to resolve
this uncertainty, we abort").  The flat run loses whole transactions
there; the nested run retries just the failed call as a new subaction
and commits.

Run:  python examples/nested_transactions.py
"""

from repro import EmptyModule, Runtime, transaction_program
from repro.sim.process import sleep
from repro.workloads.kv import KVStoreSpec
from repro.workloads.loadgen import run_closed_loop


@transaction_program
def flat_order(txn, group, items):
    """A multi-step order: any failed call aborts the whole transaction."""
    for key in items:
        yield txn.call(group, "incr", key, 1)
        yield sleep(15.0)
    return len(items)


@transaction_program(subactions=True)
def nested_order(txn, group, items):
    """The same steps, but each call is a subaction that can be retried."""
    for key in items:
        yield txn.call(group, "incr", key, 1)
        yield sleep(15.0)
    return len(items)


def lose_replies_then_crash(rt, every=300.0, count=6, mute=20.0, recover_after=140.0):
    """Every *every*: cut kv's primary's link to the client group's primary
    for *mute*, then crash kv's primary and restore the link."""
    for _ in range(count):
        yield sleep(every - mute)
        server = rt.groups["kv"].active_primary()
        client = rt.groups["clients"].active_primary()
        if server is None or client is None:
            continue
        ends = (server.node.node_id, client.node.node_id)
        rt.faults.fail_link_oneway(*ends)
        yield sleep(mute)
        if rt.faults.crash(ends[0]):
            rt.faults.recover_later(ends[0], recover_after)
        rt.faults.repair_link_oneway(*ends)


def run(program_name: str) -> tuple:
    rt = Runtime(seed=31)
    spec = KVStoreSpec(n_keys=64)
    kv = rt.create_group("kv", spec, n_cohorts=3)
    clients = rt.create_group("clients", EmptyModule(), n_cohorts=3)
    clients.register_program("flat", flat_order)
    clients.register_program("nested", nested_order)
    driver = rt.create_driver("driver")

    jobs = [
        (program_name, ("kv", [spec.key(4 * j + i) for i in range(4)]))
        for j in range(50)
    ]
    stats = run_closed_loop(rt, driver, "clients", jobs, concurrency=3)
    rt.faults.spawn(lose_replies_then_crash(rt), name="lose-replies-then-crash")
    while stats.submitted < len(jobs) and rt.sim.now < 60_000:
        rt.run_for(500)
    rt.quiesce()
    rt.check_invariants(require_convergence=False)
    retries = rt.metrics.counters.get("subaction_retries:clients", 0)
    return stats, retries, len(rt.ledger.view_changes_for("kv"))


def main():
    flat, _retries, changes = run("flat")
    print("flat (one-level) transactions:")
    print(f"  committed {flat.committed}, aborted {flat.aborted} "
          f"across {changes} view changes")

    nested, retries, changes = run("nested")
    print("nested transactions (subactions):")
    print(f"  committed {nested.committed}, aborted {nested.aborted} "
          f"across {changes} view changes ({retries} subaction retries)")

    print("\nsubactions turned the lost-reply aborts into quiet call retries")
    assert nested.committed >= flat.committed


if __name__ == "__main__":
    main()
