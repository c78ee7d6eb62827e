"""Tests for workload specs, the load generator, and failure schedules."""


from repro import EmptyModule, Nemesis, Runtime
from repro.workloads.airline import AirlineSpec, check_airline_invariants
from repro.workloads.bank import BankAccountsSpec
from repro.workloads.kv import KVStoreSpec
from repro.workloads.loadgen import run_closed_loop


# -- specs -----------------------------------------------------------------


def test_kv_spec_key_space():
    spec = KVStoreSpec(n_keys=4)
    assert spec.key(0) == "key0"
    assert spec.key(5) == "key1"  # wraps
    assert len(spec.initial_objects()) == 4


def test_bank_spec_accounts():
    spec = BankAccountsSpec(n_accounts=3, opening_balance=50)
    objects = spec.initial_objects()
    assert len(objects) == 3
    assert all(value == 50 for value in objects.values())


def test_airline_spec_objects():
    spec = AirlineSpec(flights=("F1",), capacity=10)
    objects = spec.initial_objects()
    assert objects == {"F1:left": 10, "F1:booked": 0}


def build_airline(seed=2):
    rt = Runtime(seed=seed)
    spec = AirlineSpec(flights=("F1",), capacity=5)
    airline = rt.create_group("airline", spec, n_cohorts=3)
    clients = rt.create_group("clients", EmptyModule(), n_cohorts=3)
    from repro.workloads.airline import book_trip_program

    clients.register_program("book", book_trip_program)
    driver = rt.create_driver("driver")
    return rt, airline, clients, driver, spec


def test_airline_never_oversells():
    rt, airline, _clients, driver, spec = build_airline()
    futures = [
        driver.call("clients", "book", "airline", "F1", 2) for _ in range(5)
    ]
    rt.run_for(3000)
    rt.quiesce()
    committed = sum(1 for f in futures if f.done and f.result()[0] == "committed")
    assert committed == 2  # 5 seats / 2 per booking
    check_airline_invariants(airline, spec)


def test_airline_cancel_restores_seats():
    rt, airline, clients, driver, spec = build_airline(seed=3)
    from repro import transaction_program

    @transaction_program
    def cancel(txn, flight, seats):
        result = yield txn.call("airline", "cancel", flight, seats)
        return result

    clients.register_program("cancel", cancel)
    f = driver.call("clients", "book", "airline", "F1", 3)
    rt.run_for(300)
    assert f.result()[0] == "committed"
    f = driver.call("clients", "cancel", "F1", 2)
    rt.run_for(300)
    assert f.result()[0] == "committed"
    rt.quiesce()
    assert airline.read_object("F1:left") == 4
    check_airline_invariants(airline, spec)


# -- closed loop ---------------------------------------------------------------


def test_closed_loop_runs_all_jobs():
    rt = Runtime(seed=4)
    spec = KVStoreSpec(n_keys=4)
    rt.create_group("kv", spec, n_cohorts=3)
    clients = rt.create_group("clients", EmptyModule(), n_cohorts=3)
    from repro.workloads.kv import write_program

    clients.register_program("write", write_program)
    driver = rt.create_driver("driver")
    jobs = [("write", ("kv", spec.key(i), i)) for i in range(10)]
    stats = run_closed_loop(rt, driver, "clients", jobs, concurrency=2)
    rt.run_for(5000)
    assert stats.submitted == 10
    assert stats.committed == 10
    assert stats.throughput > 0
    assert stats.mean_latency > 0
    assert stats.abort_rate == 0


def test_closed_loop_think_time_spreads_load():
    rt = Runtime(seed=5)
    spec = KVStoreSpec(n_keys=4)
    rt.create_group("kv", spec, n_cohorts=3)
    clients = rt.create_group("clients", EmptyModule(), n_cohorts=3)
    from repro.workloads.kv import write_program

    clients.register_program("write", write_program)
    driver = rt.create_driver("driver")
    jobs = [("write", ("kv", spec.key(i), i)) for i in range(5)]
    stats = run_closed_loop(rt, driver, "clients", jobs, think_time=100.0)
    rt.run_for(5000)
    assert stats.committed == 5
    assert stats.duration > 400  # at least the think time between jobs


def test_a_job_that_runs_out_of_attempts_is_recorded_not_dropped():
    from repro.harness.common import build_kv_system

    rt, kv, _clients, driver, spec = build_kv_system(seed=6)
    rt.faults.partition(*[{node.node_id} for node in kv.nodes()])  # nothing commits
    jobs = [("write", ("kv", spec.key(0), 1)), ("write", ("kv", spec.key(1), 2))]
    stats = run_closed_loop(rt, driver, "clients", jobs, max_attempts=2)
    rt.run_for(20_000)
    # two attempts each, then recorded: the retry loop used to drop them silently
    assert (stats.committed, stats.submitted, stats.gave_up) == (0, 4, jobs)


# -- schedules -------------------------------------------------------------------


def test_crash_schedule_respects_max_down():
    rt = Runtime(seed=6)
    nodes = [rt.create_node(f"n{i}") for i in range(3)]
    rt.inject(
        Nemesis().crash_churn(
            [node.node_id for node in nodes], mttf=50.0, mttr=100.0, max_down=1
        )
    )
    worst = 0
    for _ in range(100):
        rt.run_for(20)
        worst = max(worst, sum(1 for n in nodes if not n.up))
    rt.faults.stop()
    assert worst <= 1


def test_crash_schedule_records_events():
    rt = Runtime(seed=7)
    nodes = [rt.create_node(f"n{i}") for i in range(2)]
    rt.inject(
        Nemesis().crash_churn([node.node_id for node in nodes], mttf=100.0, mttr=50.0)
    )
    rt.run_for(2000)
    rt.faults.stop()
    kinds = {event.kind for event in rt.faults.timeline}
    assert kinds == {"crash", "recover"}


def test_partition_schedule_forms_and_heals():
    rt = Runtime(seed=8)
    node_ids = [rt.create_node(f"n{i}").node_id for i in range(4)]
    rt.inject(
        Nemesis().partition_storm(node_ids, mean_healthy=50.0, mean_partitioned=50.0)
    )
    rt.run_for(2000)
    rt.faults.stop()
    assert rt.faults.count("partition") > 0


def test_crash_primary_rule_counts():
    from tests.conftest import build_counter_system

    rt, counter, _clients, _driver = build_counter_system(seed=9)
    rt.inject(
        Nemesis().crash_primary(counter.groupid, every=100.0, count=1, recover_after=100.0)
    )
    rt.run_for(120)
    assert any(not node.up for node in counter.nodes())
    rt.run_for(200)
    assert all(node.up for node in counter.nodes())
