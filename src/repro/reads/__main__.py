"""``python -m repro.reads check-docs DOC``: the docs-drift gate for
docs/READS.md.

Fails unless DOC mentions every ReadConfig knob, read-path trace event
kind, reject reason, serving mode, and the stale_lease monitor.  The E19
determinism gate is ``python -m repro.gate reads``.
"""

from __future__ import annotations

import dataclasses
import sys

from repro import checkdocs
from repro.config import ReadConfig

#: Every trace event kind the read path emits (docs/TRACING.md).
READ_EVENT_KINDS = (
    "lease_grant",
    "lease_expire",
    "lease_read",
    "lease_wait",
    "stale_read",
)

#: Every reason a cohort can reject a ReadMsg with.
REJECT_REASONS = ("reads_disabled", "not_active", "no_lease", "too_stale")

#: Every mode a ReadResult can resolve with.
SERVING_MODES = ("lease", "backup", "cache", "txn", "none")

#: Monitors the read path relies on.
READ_MONITORS = ("stale_lease",)

REQUIRED = {
    "ReadConfig knob": [field.name for field in dataclasses.fields(ReadConfig)],
    "event kind": READ_EVENT_KINDS,
    "reject reason": REJECT_REASONS,
    "serving mode": SERVING_MODES,
    "monitor": READ_MONITORS,
}


def main(argv=None) -> int:
    return checkdocs.main("repro.reads", REQUIRED, argv)


if __name__ == "__main__":
    sys.exit(main())
