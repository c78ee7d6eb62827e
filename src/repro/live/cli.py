"""``python -m repro.live``: the liveness coverage matrix and its tooling.

Subcommands::

    matrix [--seed N] [--duration D] [--schedule NAME ...]
           [--quick] [--trace] [--artifact-dir DIR]
        Run the nemesis x spec coverage matrix (the default command).
        Healable schedules must produce zero violations; the unhealable
        majority partition must produce one that names the cut.  On a
        failing cell the StallReport (and, with --trace, its causal
        slice) is written under --artifact-dir.

    specs
        The liveness-spec catalog with default windows.

    schedules
        The nemesis schedules the matrix crosses the specs against.

    check-docs DOC
        Fail unless every spec name, schedule name, and StallReport
        field is mentioned in DOC (the docs-drift gate for
        docs/LIVENESS.md).
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

from repro.checkdocs import check_docs
from repro.config import ProtocolConfig
from repro.live.matrix import SCHEDULES, run_matrix
from repro.live.report import StallReport
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


def _export_cell_artifacts(result, artifact_dir: str) -> None:
    os.makedirs(artifact_dir, exist_ok=True)
    base = os.path.join(artifact_dir, f"{result.schedule}-seed{result.seed}")
    with open(f"{base}.txt", "w", encoding="utf-8") as handle:
        handle.write(result.render() + "\n")
        if result.report is not None:
            handle.write(result.report.render() + "\n")
    if result.report is not None and result.report.causal_slice:
        with open(f"{base}-slice.jsonl", "w", encoding="utf-8") as handle:
            for event in result.report.causal_slice:
                handle.write(event.to_json_line() + "\n")


def _matrix(args) -> int:
    duration = args.duration
    if args.quick and args.duration == _DEFAULT_DURATION:
        duration = 2_500.0
    trace = None
    if args.trace:
        from repro.config import TraceConfig

        trace = TraceConfig(enabled=True, ring_size=20_000)
    results = run_matrix(
        seed=args.seed,
        duration=duration,
        schedules=args.schedule or None,
        trace=trace,
    )
    failed = [result for result in results if not result.ok]
    for result in results:
        print(result.render())
    for result in failed:
        if args.artifact_dir:
            _export_cell_artifacts(result, args.artifact_dir)
        if result.report is not None:
            print()
            print(result.report.render())
    print()
    print(
        f"matrix: {len(results) - len(failed)}/{len(results)} cells ok "
        f"(seed {args.seed}, duration {duration:g})"
    )
    return 1 if failed else 0


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


_DEFAULT_DURATION = 5_000.0


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    commands = {"matrix", "specs", "schedules", "check-docs"}
    if argv and argv[0] not in commands and argv[0] not in ("-h", "--help"):
        argv = ["matrix"] + list(argv)  # bare flags mean the matrix
    elif not argv:
        argv = ["matrix"]
    parser = argparse.ArgumentParser(
        prog="python -m repro.live",
        description="Liveness specs, stall diagnosis, and the coverage matrix.",
    )
    sub = parser.add_subparsers(dest="command")

    matrix = sub.add_parser("matrix", help="run the nemesis x spec matrix")
    matrix.add_argument("--seed", type=int, default=0)
    matrix.add_argument("--duration", type=float, default=_DEFAULT_DURATION)
    matrix.add_argument(
        "--schedule",
        action="append",
        choices=sorted(SCHEDULES),
        help="run only these schedules (repeatable)",
    )
    matrix.add_argument(
        "--quick", action="store_true", help="shorter cells for CI smoke"
    )
    matrix.add_argument(
        "--trace",
        action="store_true",
        help="arm repro.trace so StallReports carry causal slices",
    )
    matrix.add_argument("--artifact-dir", default=None)
    matrix.set_defaults(fn=_matrix)

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
