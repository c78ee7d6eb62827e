"""repro: Viewstamped Replication (Oki & Liskov, PODC 1988), reproduced.

A complete implementation of the viewstamped replication primary-copy
method -- transaction processing with viewstamps and psets, the
communication buffer, the view change algorithm -- on a deterministic
discrete-event simulator, together with the baselines the paper compares
against (quorum voting, virtual partitions, Isis-style piggybacking, an
unreplicated 2PC system, a Tandem-style primary/backup pair).

Quickstart::

    from repro import EmptyModule, ModuleSpec, Runtime, procedure, transaction_program

    class Counter(ModuleSpec):
        def initial_objects(self):
            return {"count": 0}

        @procedure
        def increment(self, ctx, amount):
            value = yield ctx.read("count")
            yield ctx.write("count", value + amount)
            return value + amount

    @transaction_program
    def bump(txn, amount):
        result = yield txn.call("counter", "increment", amount)
        return result

    rt = Runtime(seed=1)
    rt.create_group("counter", Counter(), n_cohorts=3)
    clients = rt.create_group("clients", EmptyModule(), n_cohorts=3)
    clients.register_program("bump", bump)
    driver = rt.create_driver("driver")
    outcome = driver.call("clients", "bump", 5)
    rt.run_for(500)
    print(outcome.result())  # CallResult(status="committed", value=5)
"""

from repro.app import (
    CallContext,
    EmptyModule,
    ModuleSpec,
    procedure,
    transaction_program,
)
from repro.config import (
    BatchConfig,
    GeoConfig,
    ProtocolConfig,
    ReadConfig,
    ScaleConfig,
    TraceConfig,
)
from repro.core import ModuleGroup, View, ViewId, Viewstamp
from repro.driver import CallFailed, CallResult, Driver, ReadResult
from repro.faults import FaultController, FaultPlan, Nemesis
from repro.geo import (
    Datacenter,
    PlacementPolicy,
    Topology,
    Zone,
    resolve_placement,
    symmetric_topology,
)
from repro.location import GroupNotFound, LocationService
from repro.net.link import LAN, LOSSY, WAN, LinkModel
from repro.runtime import Runtime
from repro.shard import ShardedGroup, ShardMap
from repro.storage.stable import DiskFault, StableStoragePolicy

__version__ = "1.0.0"

__all__ = [
    "BatchConfig",
    "CallContext",
    "CallFailed",
    "CallResult",
    "Datacenter",
    "DiskFault",
    "Driver",
    "EmptyModule",
    "FaultController",
    "FaultPlan",
    "GeoConfig",
    "GroupNotFound",
    "LAN",
    "LOSSY",
    "LocationService",
    "WAN",
    "LinkModel",
    "ModuleGroup",
    "ModuleSpec",
    "Nemesis",
    "PlacementPolicy",
    "ProtocolConfig",
    "ReadConfig",
    "ReadResult",
    "Runtime",
    "ScaleConfig",
    "ShardMap",
    "ShardedGroup",
    "StableStoragePolicy",
    "Topology",
    "TraceConfig",
    "View",
    "ViewId",
    "Viewstamp",
    "Zone",
    "procedure",
    "resolve_placement",
    "symmetric_topology",
    "transaction_program",
]
