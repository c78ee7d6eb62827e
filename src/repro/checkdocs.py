"""Each doc's vocabulary, checked by ``python -m repro.harness --check``.

:data:`DOCS` maps a doc (a path from the repo root) to the names it must
mention -- config knobs, trace event kinds, wire terms, command lines -- as
a table of ``category -> names``, read from the code that defines them
where the code has a table.  A name counts only as a whole identifier:
``gossip_relay`` does not document ``gossip``.

:func:`dangling` holds the prose docs of :data:`REFERENCE_DOCS` to the code
the other way: a backticked ``Class.attr`` that names a ``repro`` class
must name something that class (or a ``repro`` base of it) defines.
"""

from __future__ import annotations

import ast
import dataclasses
import glob
import pathlib
import re
from typing import Dict, List, Sequence, Set

from repro.config import GeoConfig, ProtocolConfig, ReadConfig, ScaleConfig
from repro.faults.controller import PRIMITIVES
from repro.faults.nemesis import BUILDERS
from repro.geo.placement import PLACEMENT_POLICIES
from repro.live import SCHEDULES, StallReport, spec_catalog
from repro.trace.events import EVENT_FIELDS, EVENT_KINDS
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


def _entry(text: str, kind: str) -> str:
    """*kind*'s bullet in the catalog: its ``- `kind` `` line and the
    indented lines that continue it, joined into one line."""
    lines = text.splitlines()
    for index, line in enumerate(lines):
        if line.startswith(f"- `{kind}` "):
            entry = [line]
            for more in lines[index + 1:]:
                if not more.startswith("  "):
                    break
                entry.append(more.strip())
            return " ".join(entry)
    return ""


def _field_entries(text: str) -> List[str]:
    """Each kind's entry lists exactly its ``EVENT_FIELDS`` after ``data:``
    (``data: none`` for a kind with none)."""
    missing = []
    for kind, fields in EVENT_FIELDS.items():
        listed = re.search(r"data: (none|`\w+`(?:, `\w+`)*)", _entry(text, kind))
        if listed is None:
            missing.append(f"{kind} lists no data fields")
            continue
        named = re.findall(r"`(\w+)`", listed.group(1))
        missing += [f"{kind} field {field!r}" for field in fields if field not in named]
        missing += [
            f"{kind} names undeclared field {name!r}" for name in named if name not in fields
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
        missing += _subscription_rows(text) + _field_entries(text)
    return missing


#: the prose docs whose backticked ``Class.attr`` references must resolve
REFERENCE_DOCS = ("DESIGN.md", "README.md", "docs/*.md")
_REFERENCE = re.compile(r"`([A-Z][A-Za-z0-9_]*)\.([A-Za-z_][A-Za-z0-9_]*)")


def _classes() -> Dict[str, Set[str]]:
    """Each class defined under ``src/repro`` -> the attributes it defines:
    its body's methods, nested classes and (annotated) assignments, every
    ``self.attr`` it assigns, and, resolved by name, those of its ``repro``
    bases.  Two classes of one name share one set."""
    own: Dict[str, Set[str]] = {}
    bases: Dict[str, Set[str]] = {}
    for path in sorted(pathlib.Path(__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.ClassDef):
                continue
            attrs = own.setdefault(node.name, set())
            bases.setdefault(node.name, set()).update(
                ast.unparse(base).rpartition(".")[2] for base in node.bases
            )
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    attrs.add(item.name)
                elif isinstance(item, (ast.Assign, ast.AnnAssign)):
                    targets = item.targets if isinstance(item, ast.Assign) else [item.target]
                    attrs.update(
                        name.id for target in targets for name in ast.walk(target)
                        if isinstance(name, ast.Name)
                    )
            attrs.update(
                sub.attr for sub in ast.walk(node)
                if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Store)
                and isinstance(sub.value, ast.Name) and sub.value.id == "self"
            )

    def closure(name: str, seen: Set[str]) -> Set[str]:
        seen.add(name)
        attrs = set(own[name])
        for base in bases[name]:
            if base in own and base not in seen:
                attrs |= closure(base, seen)
        return attrs

    return {name: closure(name, set()) for name in own}


def dangling() -> List[str]:
    """Each backticked ``Class.attr`` in :data:`REFERENCE_DOCS` (read from
    the current directory) whose class is a ``repro`` class that defines
    no ``attr``, as ``doc:line Class.attr``."""
    classes = _classes()
    found = []
    for pattern in REFERENCE_DOCS:
        for doc in sorted(glob.glob(pattern)):
            with open(doc, "r", encoding="utf-8") as handle:
                lines = handle.read().splitlines()
            for lineno, line in enumerate(lines, 1):
                for cls, attr in _REFERENCE.findall(line):
                    if cls in classes and attr not in classes[cls]:
                        found.append(f"{doc}:{lineno} {cls}.{attr}")
    return found
