"""Each doc's vocabulary, checked by ``python -m repro.harness --check``.

:data:`DOCS` maps a doc (a path from the repo root) to the names it must
mention -- config knobs, trace event kinds, wire terms, command lines -- as
a table of ``category -> names``, read from the code that defines them
where the code has a table.  A name counts only as a whole identifier:
``gossip_relay`` does not document ``gossip``.
"""

from __future__ import annotations

import dataclasses
import re
from typing import Dict, List, Sequence

from repro.config import GeoConfig, ProtocolConfig, ReadConfig, ScaleConfig
from repro.faults.controller import PRIMITIVES
from repro.faults.nemesis import BUILDERS
from repro.geo.placement import PLACEMENT_POLICIES
from repro.live import SCHEDULES, StallReport, spec_catalog
from repro.trace.events import EVENT_KINDS
from repro.trace.monitors import MONITORS

TRACING = "docs/TRACING.md"


def _fields(config) -> List[str]:
    return [field.name for field in dataclasses.fields(config)]


DOCS: Dict[str, Dict[str, Sequence[str]]] = {
    "docs/LIVENESS.md": {
        "spec": sorted(
            spec.name for spec in spec_catalog("GROUP", ProtocolConfig(), commits=1)
        ),
        "schedule": sorted(SCHEDULES),
        "StallReport field": _fields(StallReport),
    },
    TRACING: {"event kind": sorted(EVENT_KINDS), "monitor": sorted(MONITORS)},
    "docs/FAULTS.md": {"primitive": tuple(PRIMITIVES), "Nemesis builder": BUILDERS},
    "docs/READS.md": {
        "ReadConfig knob": _fields(ReadConfig),
        "event kind": ("lease_grant", "lease_expire", "lease_read", "lease_wait", "stale_read"),
        # Every reason a cohort can reject a ReadMsg with.
        "reject reason": ("reads_disabled", "not_active", "no_lease", "too_stale"),
        # Every mode a ReadResult can resolve with.
        "serving mode": ("lease", "backup", "cache", "txn", "none"),
        "monitor": ("stale_lease",),
    },
    "docs/GEO.md": {
        "GeoConfig knob": _fields(GeoConfig),
        "placement policy": PLACEMENT_POLICIES,
        # The named link-model tiers a Topology derives.
        "link preset": ("INTRA_ZONE", "INTRA_DC", "CROSS_DC"),
        # Region-scale fault surface on FaultController.
        "region fault": ("region_partition", "wan_degradation", "restore_wan"),
        "event kind": ("geo_route",),
        "read preference": ("nearest",),
        "CLI": ("python -m repro.gate geo",),
    },
    "docs/SCALE.md": {
        "ScaleConfig knob": _fields(ScaleConfig),
        "event kind": ("gossip_relay", "ack_tree", "witness_vote"),
        "wire term": ("WitnessInstallMsg", "heard_relayed"),
        "CLI": ("python -m repro.gate scale",),
    },
}


def mentions(text: str, name: str) -> bool:
    """Whether *text* contains *name* with no identifier character
    (``[A-Za-z0-9_]``) directly on either side."""
    return (
        re.search(rf"(?<![A-Za-z0-9_]){re.escape(name)}(?![A-Za-z0-9_])", text)
        is not None
    )


def _subscription_rows(text: str) -> List[str]:
    """Each monitor's table row must name every kind it subscribes to."""
    missing = []
    for name in sorted(MONITORS):
        row = next(
            (line for line in text.splitlines() if line.startswith(f"| `{name}`")), ""
        )
        missing += [
            f"{name} subscribes to {kind}"
            for kind in MONITORS[name].kinds or ()
            if f"`{kind}`" not in row
        ]
    return missing


def gaps(doc: str) -> List[str]:
    """What *doc* (a key of :data:`DOCS`, read from the current directory)
    fails to document, one entry per missing name; a doc that cannot be
    read is one gap."""
    try:
        with open(doc, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as error:
        return [f"cannot read {doc}: {error}"]
    missing = [
        f"{category} {name!r}"
        for category, names in DOCS[doc].items()
        for name in names
        if not mentions(text, name)
    ]
    if doc == TRACING:
        missing += _subscription_rows(text)
    return missing
