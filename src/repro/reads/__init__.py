"""repro.reads: the read-dominant serving path (beyond the paper).

The PODC '88 protocol pushes every operation -- reads included -- through
the primary's event buffer.  This package adds the serving-path machinery
production read-heavy traffic wants, gated by
:class:`~repro.config.ReadConfig` (disabled = paper-faithful baseline):

- **primary leases** (:class:`ReadState`): the primary serves
  linearizable local reads while a majority of the configuration holds
  unexpired grants for it; grants ride the I'm-alive/buffer-ack traffic
  backups already send, and view formation carries every acceptor's
  outstanding promise bound so a new primary defers activation until any
  lease an old primary could still hold has expired;
- **stale-bounded backup reads**: backups answer from their applied
  prefix, tagged with the viewstamp the prefix reflects, iff its
  staleness is within the request's ``max_staleness``;
- **client commit-set caches** (:class:`CommitSetCache`): drivers keep
  ``(key, value, timestamp)`` entries pruned against a stable-timestamp
  watermark, Wren-style.

``python -m repro.reads check-docs docs/READS.md`` is the docs drift
gate; ``python -m repro.gate reads`` is the E19 determinism gate.
See docs/READS.md for the protocol and its safety argument.
"""

from repro.reads.cache import CommitSetCache
from repro.reads.lease import CRASH_GRANTEE, ReadState

__all__ = ["CRASH_GRANTEE", "CommitSetCache", "ReadState"]
