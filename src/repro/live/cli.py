"""``python -m repro.live``: the liveness vocabulary.

Subcommands::

    specs
        The liveness-spec catalog with default windows.

    schedules
        The nemesis schedules the gate rows run under (``python -m
        repro.gate liveness`` crosses them with the spec catalog).
"""

from __future__ import annotations

import argparse

from repro.config import ProtocolConfig
from repro.live.schedules import SCHEDULES
from repro.live.specs import spec_catalog


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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.live",
        description="Liveness specs and nemesis schedules.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    specs = sub.add_parser("specs", help="the liveness-spec catalog")
    specs.set_defaults(fn=_specs)

    schedules = sub.add_parser("schedules", help="the nemesis schedules")
    schedules.set_defaults(fn=_schedules)

    args = parser.parse_args(argv)
    return args.fn(args)
