"""Shared fixtures and helper module specs for the test suite."""

from __future__ import annotations

import resource
import sys

import pytest

from repro import EmptyModule, ModuleSpec, Runtime, procedure, transaction_program
from repro.config import ProtocolConfig
from repro.net.link import LinkModel


def pytest_terminal_summary(terminalreporter):
    """Peak RSS of the run: what the kernel's relaxed collector threshold
    (``repro.sim.kernel``) lets dead cycles cost, visible per CI shard."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform != "darwin":  # Linux reports KiB, macOS bytes
        peak *= 1024
    terminalreporter.write_line(f"peak RSS: {peak / 2**20:.0f} MiB")


class CounterSpec(ModuleSpec):
    """A single replicated counter -- the simplest stateful module."""

    def initial_objects(self):
        return {"count": 0}

    @procedure
    def increment(self, ctx, amount):
        value = yield ctx.read_for_update("count")
        yield ctx.write("count", value + amount)
        return value + amount

    @procedure
    def get(self, ctx):
        value = yield ctx.read("count")
        return value


class KVSpec(ModuleSpec):
    """A replicated key-value store over a fixed set of keys."""

    def __init__(self, keys=("k0", "k1", "k2", "k3")):
        self._keys = tuple(keys)

    def initial_objects(self):
        return {key: 0 for key in self._keys}

    @procedure
    def put(self, ctx, key, value):
        yield ctx.write(key, value)
        return value

    @procedure
    def get(self, ctx, key):
        value = yield ctx.read(key)
        return value

    @procedure
    def add(self, ctx, key, delta):
        value = yield ctx.read_for_update(key)
        yield ctx.write(key, value + delta)
        return value + delta


class BankSpec(ModuleSpec):
    """Accounts with withdraw/deposit -- the classic invariant workload."""

    def __init__(self, accounts=("a", "b", "c"), opening_balance=100):
        self._accounts = tuple(accounts)
        self._opening = opening_balance

    def initial_objects(self):
        return {account: self._opening for account in self._accounts}

    @procedure
    def deposit(self, ctx, account, amount):
        balance = yield ctx.read_for_update(account)
        yield ctx.write(account, balance + amount)
        return balance + amount

    @procedure
    def withdraw(self, ctx, account, amount):
        balance = yield ctx.read_for_update(account)
        if balance < amount:
            from repro.app.context import TransactionAborted

            raise TransactionAborted(f"insufficient funds in {account}")
        yield ctx.write(account, balance - amount)
        return balance - amount

    @procedure
    def balance(self, ctx, account):
        value = yield ctx.read(account)
        return value

    @procedure
    def total(self, ctx, accounts):
        total = 0
        for account in accounts:
            value = yield ctx.read(account)
            total += value
        return total


@transaction_program
def bump_program(txn, amount):
    result = yield txn.call("counter", "increment", amount)
    return result


@transaction_program
def read_counter_program(txn):
    result = yield txn.call("counter", "get")
    return result


@transaction_program
def transfer_program(txn, src, dst, amount):
    yield txn.call("bank", "withdraw", src, amount)
    result = yield txn.call("bank", "deposit", dst, amount)
    return result


def build_counter_system(
    seed=1,
    n_cohorts=3,
    link: LinkModel | None = None,
    config: ProtocolConfig | None = None,
):
    """Runtime with a counter group, a client group, and a driver."""
    kwargs = {}
    if link is not None:
        kwargs["link"] = link
    if config is not None:
        kwargs["config"] = config
    rt = Runtime(seed=seed, **kwargs)
    counter = rt.create_group("counter", CounterSpec(), n_cohorts=n_cohorts)
    clients = rt.create_group("clients", EmptyModule(), n_cohorts=n_cohorts)
    clients.register_program("bump", bump_program)
    clients.register_program("read", read_counter_program)
    driver = rt.create_driver("driver")
    return rt, counter, clients, driver


def build_bank_system(
    seed=1,
    n_cohorts=3,
    accounts=("a", "b", "c"),
    opening=100,
    link: LinkModel | None = None,
    config: ProtocolConfig | None = None,
):
    """Runtime with a bank group, a client group, and a driver."""
    kwargs = {}
    if link is not None:
        kwargs["link"] = link
    if config is not None:
        kwargs["config"] = config
    rt = Runtime(seed=seed, **kwargs)
    bank = rt.create_group(
        "bank", BankSpec(accounts=accounts, opening_balance=opening), n_cohorts=n_cohorts
    )
    clients = rt.create_group("clients", EmptyModule(), n_cohorts=n_cohorts)
    clients.register_program("transfer", transfer_program)
    driver = rt.create_driver("driver")
    return rt, bank, clients, driver


def total_balance(bank, accounts):
    return sum(bank.read_object(account) for account in accounts)


@pytest.fixture
def counter_system():
    return build_counter_system()


@pytest.fixture
def bank_system():
    return build_bank_system()
