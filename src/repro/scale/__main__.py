"""``python -m repro.scale check-docs DOC``: the docs-drift gate for
docs/SCALE.md.

Fails unless DOC mentions every ScaleConfig knob, the three scale trace
events, the witness install message, the relayed-heartbeat detector entry
point, and the scale command lines.  The determinism gate is
``python -m repro.gate scale``.
"""

from __future__ import annotations

import dataclasses
import sys

from repro import checkdocs
from repro.config import ScaleConfig

#: Trace event kinds the scale mechanisms emit.
SCALE_EVENT_KINDS = ("gossip_relay", "ack_tree", "witness_vote")

#: Wire vocabulary the mechanisms add.
SCALE_WIRE_TERMS = ("WitnessInstallMsg", "heard_relayed")

#: Command lines the doc must point readers at.
SCALE_CLIS = ("python -m repro.gate scale", "python -m repro.scale check-docs")

REQUIRED = {
    "ScaleConfig knob": [field.name for field in dataclasses.fields(ScaleConfig)],
    "event kind": SCALE_EVENT_KINDS,
    "wire term": SCALE_WIRE_TERMS,
    "CLI": SCALE_CLIS,
}


def main(argv=None) -> int:
    return checkdocs.main("repro.scale", REQUIRED, argv)


if __name__ == "__main__":
    sys.exit(main())
