#!/usr/bin/env python3
"""Order pipeline: three replicated services, one atomic transaction each.

Every order touches the inventory group, the payments group, and the order
ledger group -- a three-participant distributed transaction coordinated by
the client group's primary (paper section 3).  Crashes hit two of the
three services mid-run; afterwards the three-way books must balance
exactly: stock + sold = initial, customer money + merchant revenue =
opening, and the order log agrees with both.

Run:  python examples/order_pipeline.py
"""

from repro import EmptyModule, Nemesis, Runtime
from repro.workloads.loadgen import run_closed_loop
from repro.workloads.orders import (
    InventorySpec,
    OrderLogSpec,
    PaymentsSpec,
    check_order_invariants,
    place_order_program,
)


def main():
    rt = Runtime(seed=2026)
    inventory_spec = InventorySpec(items=("widget", "gadget"), stock=40)
    payments_spec = PaymentsSpec(customers=("alice", "bob", "carol"), balance=400)
    inventory = rt.create_group("inventory", inventory_spec, n_cohorts=3)
    payments = rt.create_group("payments", payments_spec, n_cohorts=3)
    orders = rt.create_group("orders", OrderLogSpec(), n_cohorts=3)
    clients = rt.create_group("clients", EmptyModule(), n_cohorts=3)
    clients.register_program("place_order", place_order_program)
    driver = rt.create_driver("storefront")

    rng = rt.sim.rng.fork("orders")
    jobs = []
    for _ in range(60):
        customer = rng.choice(["alice", "bob", "carol"])
        item = rng.choice(["widget", "gadget"])
        jobs.append(("place_order", (customer, item, rng.randint(1, 3), 5)))

    stats = run_closed_loop(rt, driver, "clients", jobs, concurrency=3)
    rt.inject(
        Nemesis().crash_primary(inventory.groupid, every=350.0, count=2, recover_after=200.0)
    )
    rt.inject(
        Nemesis().crash_primary(payments.groupid, every=500.0, count=1, recover_after=200.0)
    )

    while stats.submitted < len(jobs) and rt.sim.now < 60_000:
        rt.run_for(500)
    rt.run_for(1500)
    rt.quiesce()

    print(f"orders placed: {stats.committed}, rejected/aborted: {stats.aborted}")
    print(f"view changes: inventory={len(rt.ledger.view_changes_for('inventory'))}, "
          f"payments={len(rt.ledger.view_changes_for('payments'))}")
    for item in inventory_spec.items:
        print(f"  {item}: {inventory.read_object(f'{item}:sold')} sold, "
              f"{inventory.read_object(f'{item}:stock')} left")
    print(f"  merchant revenue: {payments.read_object('merchant:revenue')}")
    print(f"  orders recorded: {orders.read_object('order_count')}")

    check_order_invariants(inventory, payments, orders, inventory_spec,
                           payments_spec)
    rt.check_invariants()
    print("three-way books balance exactly; committed history is 1SR")


if __name__ == "__main__":
    main()
