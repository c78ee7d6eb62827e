#!/usr/bin/env python3
"""Nested transactions: retry a call instead of aborting everything (3.6).

"Subactions are an economical way to cope with view changes...  we need to
abort and redo a call subaction only when the view changes; thus we do
extra work only when the problem arises."

Two identical workloads run against a KV group whose primary is killed
repeatedly: one with flat (one-level) transactions, one with subactions.
The flat run loses whole transactions whenever a call catches a dead
primary; the nested run retries just the failed call as a new subaction
and almost always commits.

Run:  python examples/nested_transactions.py
"""

from repro import EmptyModule, Nemesis, Runtime, transaction_program
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
    rt.inject(
        Nemesis().crash_primary(kv.groupid, every=300.0, count=6, recover_after=140.0)
    )
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

    print("\nsubactions turned most view-change aborts into quiet call retries")
    assert nested.committed >= flat.committed


if __name__ == "__main__":
    main()
