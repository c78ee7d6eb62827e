"""Workload generators for experiments and chaos tests (failure schedules
are :mod:`repro.faults` rules)."""

from repro.workloads.airline import AirlineSpec, book_trip_program
from repro.workloads.bank import (
    BankAccountsSpec,
    audit_program,
    cross_bank_transfer_program,
    deposit_program,
    transfer_program,
)
from repro.workloads.kv import KVStoreSpec, read_program, update_program, write_program
from repro.workloads.loadgen import (
    ClosedLoopStats,
    OpenLoopStats,
    ZipfianGenerator,
    latency_histogram,
    run_closed_loop,
    run_open_loop,
)
from repro.workloads.orders import (
    InventorySpec,
    OrderLogSpec,
    PaymentsSpec,
    check_order_invariants,
    place_order_program,
)

__all__ = [
    "AirlineSpec",
    "BankAccountsSpec",
    "ClosedLoopStats",
    "InventorySpec",
    "KVStoreSpec",
    "OpenLoopStats",
    "OrderLogSpec",
    "PaymentsSpec",
    "ZipfianGenerator",
    "audit_program",
    "book_trip_program",
    "check_order_invariants",
    "cross_bank_transfer_program",
    "deposit_program",
    "latency_histogram",
    "place_order_program",
    "read_program",
    "run_closed_loop",
    "run_open_loop",
    "transfer_program",
    "update_program",
    "write_program",
]
