"""ShardedGroup: one client-facing façade over N replica groups.

The paper's transaction machinery (sections 3.3-3.6) is already
multi-group: psets name every participant group, prepares carry the pset
so each participant validates *its own* viewstamp history with
``compatible``, and the commit point is the coordinator's forced
committing record (a pset naming one shard: that shard's own forced
committed record).  Sharding therefore needs no new protocol -- only an
assignment of keys to groups and a router that turns key-addressed
requests into ordinary (single- or multi-group) transactions:

- **single-key programs** are submitted directly to the owning shard
  group, whose primary coordinates a transaction on itself -- the
  :class:`~repro.shard.map.ShardMap` literally routes the call to the
  owning group's primary;
- **multi-key programs** are submitted to a replicated *router* group
  whose primary runs the paper's cross-group 2PC against every owning
  shard.  A view change in one shard invalidates only the psets naming
  that shard, so exactly the transactions touching it abort (and retry).

The per-shard write workload (``seq_put``) funnels every write through a
per-shard sequence object held under a write lock for the whole 2PC --
the per-shard serial bottleneck that makes E17's throughput-vs-shards
measurement meaningful on a simulator with no per-node CPU model.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.app.module import EmptyModule, procedure, transaction_program
from repro.shard.map import ShardMap
from repro.sim.rng import sha256
from repro.workloads.kv import (
    KVStoreSpec,
    read_program,
    update_program,
    write_program,
)


def resolve_shard_groupid(sharded, shard: int) -> str:
    """Resolve (façade-or-name, shard index) to the shard's groupid.

    Fault-injection helpers accept either a live :class:`ShardedGroup`
    or just its name, so plans can be built before (or without) the
    runtime that will execute them.
    """
    resolver = getattr(sharded, "shard_groupid", None)
    if callable(resolver):
        return resolver(shard)
    return f"{sharded}-s{shard}"


class ShardStoreSpec(KVStoreSpec):
    """A KV shard with a per-shard sequence object.

    ``seq_put`` stamps every write with the next value of ``__seq``,
    taken under a write lock (``read_for_update``), so writes within one
    shard serialize for the duration of their transaction while writes on
    different shards proceed independently -- the scaling bottleneck E17
    measures.
    """

    SEQ_KEY = "__seq"

    def initial_objects(self):
        objects = super().initial_objects()
        objects[self.SEQ_KEY] = 0
        return objects

    @procedure
    def seq_put(self, ctx, key, value):
        # Lock order: the user key first, the sequence object last.  Every
        # sharded program acquires user keys in sorted order and ``__seq``
        # after all of them, so wait-for chains cannot form cycles -- and
        # a call queued on a hot user key does not stall the whole shard
        # by sitting on the sequence lock while it waits.
        yield ctx.write(key, value)
        seq = yield ctx.read_for_update(self.SEQ_KEY)
        yield ctx.write(self.SEQ_KEY, seq + 1)
        return seq + 1

    @procedure
    def incr(self, ctx, key, delta=1):
        # Unlike the base KV store (whose keys all exist up front), a
        # shard's key space is open: treat a never-written key as 0.
        value = yield ctx.read_for_update(key)
        value = (0 if value is None else value) + delta
        yield ctx.write(key, value)
        return value


@transaction_program
def seq_put_program(txn, group, key, value):
    result = yield txn.call(group, "seq_put", key, value)
    return result


class ShardedGroup:
    """N shard groups plus a router group behind one key-addressed API."""

    #: Programs registered on every shard group; routed by their first arg.
    SINGLE_KEY_PROGRAMS = ("read", "write", "update", "seq_put")
    #: Programs registered on the router group (cross-shard 2PC).
    CROSS_SHARD_PROGRAMS = ("multi_get", "multi_put", "transfer")

    def __init__(
        self,
        runtime,
        name: str,
        n_shards: int,
        n_cohorts: int = 3,
        spec_factory=None,
        strategy: str = "hash",
        boundaries: Optional[Sequence[str]] = None,
        n_keys: int = 16,
        config=None,
    ):
        if n_shards < 1:
            raise ValueError(f"sharded_group({name!r}): n_shards must be >= 1")
        self.runtime = runtime
        self.name = name
        groupids = tuple(f"{name}-s{i}" for i in range(n_shards))
        self.map = ShardMap(groupids, strategy=strategy, boundaries=boundaries)
        self.shards = {}
        for index, groupid in enumerate(groupids):
            if spec_factory is not None:
                spec = spec_factory(index)
            else:
                spec = ShardStoreSpec(n_keys=n_keys)
            spec.register_program("read", read_program)
            spec.register_program("write", write_program)
            spec.register_program("update", update_program)
            spec.register_program("seq_put", seq_put_program)
            self.shards[groupid] = runtime.create_group(
                groupid, spec, n_cohorts=n_cohorts, config=config
            )
        self.router_groupid = f"{name}-router"
        router_spec = EmptyModule()
        self._register_router_programs(router_spec)
        self.router = runtime.create_group(
            self.router_groupid, router_spec, n_cohorts=n_cohorts, config=config
        )
        runtime.location.publish_shard_map(name, self.map)

    # -- cross-shard transaction programs ---------------------------------

    def _register_router_programs(self, spec) -> None:
        # Closures read ``self.map`` at run time, so a republished map
        # takes effect for every transaction after the republish.
        facade = self

        @transaction_program
        def multi_get(txn, keys):
            out = {}
            for groupid, shard_keys in facade.map.assignments(keys):
                values = yield txn.call(groupid, "multi_get", shard_keys)
                out.update(zip(shard_keys, values))
            return out

        @transaction_program
        def multi_put(txn, pairs):
            count = 0
            for groupid, shard_pairs in facade.map.group_pairs(pairs):
                count += yield txn.call(groupid, "multi_put", shard_pairs)
            return count

        @transaction_program
        def transfer(txn, src_key, dst_key, amount):
            # Touch keys in sorted order: with every transfer agreeing on
            # the acquisition order, two transfers over the same pair of
            # keys queue instead of deadlocking.
            results = {}
            for key, delta in sorted(((src_key, -amount), (dst_key, amount))):
                results[key] = yield txn.call(
                    facade.map.shard_for(key), "incr", key, delta
                )
            return (results[src_key], results[dst_key])

        spec.register_program("multi_get", multi_get)
        spec.register_program("multi_put", multi_put)
        spec.register_program("transfer", transfer)

    # -- routing ----------------------------------------------------------

    def route(
        self, program: str, args: tuple, origin=None
    ) -> Tuple[str, str, tuple]:
        """Resolve a key-addressed request to (groupid, program, args).

        Single-key programs go to the owning shard group (whose primary
        both coordinates and serves the transaction); everything else
        goes to the router group for cross-shard 2PC.
        """
        if program in self.SINGLE_KEY_PROGRAMS:
            key = args[0]
            groupid = self.map.shard_for(key)
            routed = (groupid, program, (groupid, *args))
        else:
            routed = (self.router_groupid, program, tuple(args))
        tracer = self.runtime.tracer
        if tracer is not None:
            tracer.emit_row(
                "shard_route",
                origin.node.node_id if origin is not None else None,
                (),
                (
                    self.name,
                    self.map.version,
                    program,
                    routed[0],
                    self.touched_shards(program, args),
                ),
            )
        return routed

    def touched_shards(self, program: str, args: tuple) -> Tuple[str, ...]:
        """The shard groupids a request will touch (sorted)."""
        if program in self.SINGLE_KEY_PROGRAMS:
            return (self.map.shard_for(args[0]),)
        if program == "transfer":
            keys = [args[0], args[1]]
        elif program == "multi_put":
            keys = [key for key, _value in args[0]]
        elif program == "multi_get":
            keys = list(args[0])
        else:
            raise KeyError(f"unknown sharded program {program!r}")
        return tuple(sorted({self.map.shard_for(key) for key in keys}))

    # -- rebalancing ------------------------------------------------------

    def republish(self, new_map: ShardMap) -> ShardMap:
        """Install a rebalanced map (same groups, strictly newer version)."""
        if tuple(new_map.groupids) != tuple(self.map.groupids):
            raise ValueError(
                "republish() must keep the façade's shard groups: "
                f"{new_map.groupids} != {self.map.groupids}"
            )
        self.runtime.location.publish_shard_map(self.name, new_map)
        self.map = new_map
        return new_map

    # -- group plumbing ----------------------------------------------------

    @property
    def n_shards(self) -> int:
        return len(self.shards)

    def shard_groupid(self, index: int) -> str:
        return self.map.groupids[index]

    def shard(self, index: int):
        return self.shards[self.shard_groupid(index)]

    def groups(self) -> List:
        return [*self.shards.values(), self.router]

    def nodes(self) -> List:
        return [node for group in self.groups() for node in group.nodes()]

    def converged(self) -> bool:
        return all(group.converged() for group in self.groups())

    # -- determinism ------------------------------------------------------

    def ledger_digests(self) -> Dict[str, str]:
        """Per-shard digests of this run's observable outcome."""
        return {
            groupid: shard_ledger_digest(self.runtime, groupid)
            for groupid in self.map.groupids
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ShardedGroup({self.name!r}, shards={self.n_shards}, "
            f"map=v{self.map.version})"
        )


def shard_ledger_digest(runtime, groupid: str) -> str:
    """Deterministic sha256 over one group's slice of the ledger.

    Two same-seed runs must agree on every shard's digest -- this is the
    per-shard refinement of the whole-run ``ledger_digest``, and
    what ``python -m repro.gate shard`` (CI's e17 check) compares.
    """
    ledger = runtime.ledger
    effects = sorted(
        (str(aid), list(reads), list(writes))
        for (aid, gid), (reads, writes) in ledger.effects.items()
        if gid == groupid
    )
    views = [
        (str(ev.viewid), ev.primary, ev.completed_at)
        for ev in ledger.view_changes
        if ev.groupid == groupid
    ]
    parts = [groupid, repr(effects), repr(views)]
    return sha256("\n".join(parts).encode()).hexdigest()
