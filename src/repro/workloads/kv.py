"""Key-value workload: the read/write-mix substrate for E1, E2, E5, E13."""

from __future__ import annotations

from repro.app.module import ModuleSpec, procedure, transaction_program


class KVStoreSpec(ModuleSpec):
    """A replicated key-value store over a fixed key space."""

    def __init__(self, n_keys: int = 16, prefix: str = "key"):
        self.n_keys = n_keys
        self.prefix = prefix

    def key(self, index: int) -> str:
        return f"{self.prefix}{index % self.n_keys}"

    def initial_objects(self):
        return {self.key(i): 0 for i in range(self.n_keys)}

    @procedure
    def get(self, ctx, key):
        value = yield ctx.read(key)
        return value

    @procedure
    def put(self, ctx, key, value):
        yield ctx.write(key, value)
        return value

    @procedure
    def incr(self, ctx, key, delta=1):
        value = yield ctx.read_for_update(key)
        yield ctx.write(key, value + delta)
        return value + delta

    @procedure
    def multi_get(self, ctx, keys):
        values = []
        for key in keys:
            value = yield ctx.read(key)
            values.append(value)
        return values

    @procedure
    def multi_put(self, ctx, pairs):
        for key, value in pairs:
            yield ctx.write(key, value)
        return len(pairs)


@transaction_program
def read_program(txn, group, key):
    value = yield txn.call(group, "get", key)
    return value


@transaction_program
def write_program(txn, group, key, value):
    result = yield txn.call(group, "put", key, value)
    return result


@transaction_program
def update_program(txn, group, key, delta=1):
    result = yield txn.call(group, "incr", key, delta)
    return result
