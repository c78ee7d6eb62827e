"""Tests for the three-service order workload."""


from repro import EmptyModule, Nemesis, Runtime
from repro.workloads.loadgen import run_closed_loop
from repro.workloads.orders import (
    InventorySpec,
    OrderLogSpec,
    PaymentsSpec,
    check_order_invariants,
    place_order_program,
)


def build(seed=1, n_cohorts=3, stock=20, balance=100):
    rt = Runtime(seed=seed)
    inventory_spec = InventorySpec(items=("widget",), stock=stock)
    payments_spec = PaymentsSpec(customers=("alice", "bob"), balance=balance)
    inventory = rt.create_group("inventory", inventory_spec, n_cohorts=n_cohorts)
    payments = rt.create_group("payments", payments_spec, n_cohorts=n_cohorts)
    orders = rt.create_group("orders", OrderLogSpec(), n_cohorts=n_cohorts)
    clients = rt.create_group("clients", EmptyModule(), n_cohorts=n_cohorts)
    clients.register_program("place_order", place_order_program)
    driver = rt.create_driver("driver")
    return rt, inventory, payments, orders, driver, inventory_spec, payments_spec


def test_single_order_commits_across_three_groups():
    rt, inventory, payments, orders, driver, inv_spec, pay_spec = build()
    future = driver.call("clients", "place_order", "alice", "widget", 2, 5)
    rt.run_for(500)
    outcome, order_id = future.result()
    assert outcome == "committed"
    assert order_id == 0
    rt.quiesce()
    assert inventory.read_object("widget:stock") == 18
    assert payments.read_object("alice") == 90
    assert payments.read_object("merchant:revenue") == 10
    assert orders.read_object("order_count") == 1
    check_order_invariants(inventory, payments, orders, inv_spec, pay_spec)
    rt.check_invariants()


def test_out_of_stock_aborts_whole_order():
    rt, inventory, payments, orders, driver, inv_spec, pay_spec = build(stock=1)
    future = driver.call("clients", "place_order", "alice", "widget", 5, 5)
    rt.run_for(500)
    assert future.result()[0] == "aborted"
    rt.quiesce()
    assert payments.read_object("alice") == 100  # nothing charged
    assert orders.read_object("order_count") == 0
    check_order_invariants(inventory, payments, orders, inv_spec, pay_spec)


def test_insufficient_funds_rolls_back_reservation():
    """The inventory call succeeded before the payment aborted; its
    tentative reservation must be discarded everywhere."""
    rt, inventory, payments, orders, driver, inv_spec, pay_spec = build(balance=3)
    future = driver.call("clients", "place_order", "alice", "widget", 2, 5)
    rt.run_for(500)
    assert future.result()[0] == "aborted"
    rt.quiesce()
    assert inventory.read_object("widget:stock") == 20  # reservation undone
    assert orders.read_object("order_count") == 0
    check_order_invariants(inventory, payments, orders, inv_spec, pay_spec)


def test_order_ids_are_dense_and_unique():
    rt, inventory, payments, orders, driver, inv_spec, pay_spec = build()
    futures = [
        driver.call("clients", "place_order", "alice", "widget", 1, 2)
        for _ in range(4)
    ]
    rt.run_for(3000)
    ids = sorted(f.result()[1] for f in futures if f.result()[0] == "committed")
    assert ids == list(range(len(ids)))
    rt.quiesce()
    check_order_invariants(inventory, payments, orders, inv_spec, pay_spec)


def test_books_balance_under_failures():
    rt, inventory, payments, orders, driver, inv_spec, pay_spec = build(
        seed=5, stock=30, balance=200
    )
    rng = rt.sim.rng.fork("jobs")
    jobs = [
        ("place_order",
         (rng.choice(["alice", "bob"]), "widget", rng.randint(1, 3), 4))
        for _ in range(25)
    ]
    stats = run_closed_loop(rt, driver, "clients", jobs, concurrency=2)
    rt.inject(
        Nemesis().crash_primary(inventory.groupid, every=300.0, count=2, recover_after=150.0)
    )
    deadline = rt.sim.now + 40_000
    while stats.submitted < len(jobs) and rt.sim.now < deadline:
        rt.run_for(500)
    rt.run_for(1500)
    rt.quiesce()
    check_order_invariants(inventory, payments, orders, inv_spec, pay_spec)
    rt.check_invariants(require_convergence=False)
    assert stats.committed > 0
