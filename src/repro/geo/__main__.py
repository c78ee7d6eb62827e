"""``python -m repro.geo check-docs DOC``: the docs-drift gate for
docs/GEO.md.

Fails unless DOC mentions every GeoConfig knob, placement policy,
link-model preset, region fault kind, the geo_route trace event, the
"nearest" read preference, and the geo command lines.  The E20 determinism
gate is ``python -m repro.gate geo``.
"""

from __future__ import annotations

import dataclasses
import sys

from repro import checkdocs
from repro.config import GeoConfig
from repro.geo.placement import PLACEMENT_POLICIES

#: The named link-model tiers a Topology derives (docs/GEO.md).
LINK_PRESETS = ("INTRA_ZONE", "INTRA_DC", "CROSS_DC")

#: Region-scale fault surface on FaultController.
REGION_FAULT_KINDS = ("region_partition", "wan_degradation", "restore_wan")

#: Trace event kinds the geo routing layer emits.
GEO_EVENT_KINDS = ("geo_route",)

#: Driver read preferences the geo layer adds or reinterprets.
GEO_READ_PREFERENCES = ("nearest",)

#: Command lines the doc must point readers at.
GEO_CLIS = ("python -m repro.gate geo", "python -m repro.geo check-docs")

REQUIRED = {
    "GeoConfig knob": [field.name for field in dataclasses.fields(GeoConfig)],
    "placement policy": PLACEMENT_POLICIES,
    "link preset": LINK_PRESETS,
    "region fault": REGION_FAULT_KINDS,
    "event kind": GEO_EVENT_KINDS,
    "read preference": GEO_READ_PREFERENCES,
    "CLI": GEO_CLIS,
}


def main(argv=None) -> int:
    return checkdocs.main("repro.geo", REQUIRED, argv)


if __name__ == "__main__":
    sys.exit(main())
