"""``python -m repro.live``: the liveness vocabulary and its docs gate.

Subcommands::

    specs
        The liveness-spec catalog with default windows.

    schedules
        The nemesis schedules the gate rows run under (``python -m
        repro.gate liveness`` crosses them with the spec catalog).

    check-docs DOC
        Fail unless every spec name, schedule name, and StallReport
        field is mentioned in DOC (the docs-drift gate for
        docs/LIVENESS.md).
"""

from __future__ import annotations

import argparse
import dataclasses

from repro.checkdocs import check_docs
from repro.config import ProtocolConfig
from repro.live.report import StallReport
from repro.live.schedules import SCHEDULES
from repro.live.specs import (
    EventuallyCommits,
    EventuallySinglePrimary,
    NoLivelock,
    ViewChangeConverges,
    spec_catalog,
)

SPEC_CLASSES = (
    EventuallySinglePrimary,
    EventuallyCommits,
    ViewChangeConverges,
    NoLivelock,
)


def _specs(_args) -> int:
    config = ProtocolConfig()
    for spec in spec_catalog("GROUP", config, commits=1):
        print(spec.describe())
        doc = (type(spec).__doc__ or "").strip().splitlines()[0]
        print(f"    {doc}")
    return 0


def _schedules(_args) -> int:
    for name in SCHEDULES:
        schedule = SCHEDULES[name]
        kind = "unhealable" if schedule.expect_violation else "healable"
        note = f" -- {schedule.note}" if schedule.note else ""
        print(f"{name}  [{kind}]{note}")
    return 0


def _check_docs(args) -> int:
    return check_docs(
        args.doc,
        {
            "spec": sorted(cls.name for cls in SPEC_CLASSES),
            "schedule": sorted(SCHEDULES),
            "StallReport field": [
                field.name for field in dataclasses.fields(StallReport)
            ],
        },
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.live",
        description="Liveness specs, nemesis schedules, and the docs gate.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    specs = sub.add_parser("specs", help="the liveness-spec catalog")
    specs.set_defaults(fn=_specs)

    schedules = sub.add_parser("schedules", help="the nemesis schedules")
    schedules.set_defaults(fn=_schedules)

    check = sub.add_parser(
        "check-docs", help="assert DOC mentions every spec/schedule/field"
    )
    check.add_argument("doc")
    check.set_defaults(fn=_check_docs)

    args = parser.parse_args(argv)
    return args.fn(args)
