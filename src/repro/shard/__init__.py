"""repro.shard: a partitioned key space over many replica groups.

The scale-out axis of the roadmap: a versioned
:class:`~repro.shard.map.ShardMap` assigns keys to N independent
viewstamped-replication groups, and a
:class:`~repro.shard.facade.ShardedGroup` façade routes single-key calls
to the owning group's primary and multi-key transactions through the
paper's cross-group 2PC (sections 3.3-3.6), with per-participant
viewstamp validation.  See docs/SHARDING.md and experiment E17.

``python -m repro.gate shard`` is the CI check that two same-seed
sharded runs produce byte-identical per-shard ledger digests.
"""

from repro.shard.facade import (
    ShardedGroup,
    ShardStoreSpec,
    resolve_shard_groupid,
    shard_ledger_digest,
)
from repro.shard.map import ShardMap, stable_hash

__all__ = [
    "ShardMap",
    "ShardStoreSpec",
    "ShardedGroup",
    "resolve_shard_groupid",
    "shard_ledger_digest",
    "stable_hash",
]
