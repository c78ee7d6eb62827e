#!/usr/bin/env python3
"""Airline reservations: the paper's motivating example (section 1).

"In airline reservation systems the failure of a single computer can
prevent ticket sales for a considerable time, causing a loss of revenue
and passenger goodwill."

Here the reservation system is a replicated module group: concurrent
booking agents keep selling seats while the machine hosting the primary
crashes and recovers, and the flight is never oversold -- even with a
round-trip booking that must reserve two legs atomically.

Run:  python examples/airline_reservations.py
"""

from repro import EmptyModule, Nemesis, Runtime
from repro.workloads.airline import (
    AirlineSpec,
    book_trip_program,
    check_airline_invariants,
    round_trip_program,
)
from repro.workloads.loadgen import run_closed_loop


def main():
    rt = Runtime(seed=42)
    spec = AirlineSpec(flights=("UA100", "BA200"), capacity=30)
    airline = rt.create_group("airline", spec, n_cohorts=3)
    agents = rt.create_group("agents", EmptyModule(), n_cohorts=3)
    agents.register_program("book", book_trip_program)
    agents.register_program("round_trip", round_trip_program)
    driver = rt.create_driver("agent-terminals")

    # 50 booking attempts for 30+30 seats: the tail must be rejected, and
    # a crash of the reservation primary must not lose or double-book seats.
    rng = rt.sim.rng.fork("bookings")
    jobs = []
    for _ in range(40):
        flight = rng.choice(["UA100", "BA200"])
        jobs.append(("book", ("airline", flight, rng.randint(1, 3))))
    for _ in range(10):
        jobs.append(("round_trip", ("airline", "UA100", "BA200", 1)))

    stats = run_closed_loop(rt, driver, "agents", jobs, concurrency=4)
    rt.inject(
        Nemesis().crash_primary(airline.groupid, every=250.0, count=2, recover_after=200.0)
    )

    while stats.submitted < len(jobs) and rt.sim.now < 60_000:
        rt.run_for(500)
    rt.run_for(1500)  # let the last crash's view change and recovery settle
    rt.quiesce()

    print(f"bookings committed: {stats.committed}")
    print(f"bookings rejected/aborted: {stats.aborted} "
          "(sold out, or hit the crash window)")
    print(f"view changes survived: {len(rt.ledger.view_changes_for('airline'))}")
    for flight in spec.flights:
        left = airline.read_object(f"{flight}:left")
        booked = airline.read_object(f"{flight}:booked")
        print(f"  {flight}: {booked} booked, {left} left (capacity {spec.capacity})")

    check_airline_invariants(airline, spec)
    rt.check_invariants()
    print("invariants hold: no flight oversold, seats conserved, history 1SR")


if __name__ == "__main__":
    main()
