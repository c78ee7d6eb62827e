"""CLI runner for the perf suite: ``python -m repro.perf``.

Runs the fixed scenario suite (see :mod:`repro.perf.scenarios`), prints a
summary table, writes schema-versioned ``BENCH.json``, and optionally
gates against a committed baseline::

    python -m repro.perf --quick --out BENCH.json \\
        --baseline benchmarks/results/BENCH_baseline.json --max-regression 0.20

Exit status is non-zero when any scenario regresses past the allowance,
when a scenario's same-seed determinism check fails, or when the baseline
file cannot be read.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.analysis.tables import render_table
from repro.perf.report import (
    PerfReport,
    compare_to_baseline,
    load_bench_json,
    write_bench_json,
)
from repro.perf.scenarios import SCENARIOS, run_scenario, scenario_names


def run_suite(
    quick: bool = False,
    only: Optional[List[str]] = None,
    best_of: int = 1,
) -> List[PerfReport]:
    """Run the (optionally filtered) scenario suite and return the reports."""
    selected = SCENARIOS
    if only:
        unknown = sorted(set(only) - set(scenario_names()))
        if unknown:
            raise SystemExit(
                f"unknown scenario(s) {unknown}; choose from {scenario_names()}"
            )
        selected = [s for s in SCENARIOS if s.name in only]
    return [
        run_scenario(scenario, quick=quick, best_of=best_of)
        for scenario in selected
    ]


def print_summary(reports: List[PerfReport]) -> None:
    headers = [
        "scenario", "events", "events/s", "sim-s/wall-s",
        "call p50", "call p99", "peak heap",
    ]
    print(render_table(headers, [report.summary_row() for report in reports]))
    for report in reports:
        facts = " ".join(f"{name}={value}" for name, value in report.kernel.items())
        print(f"kernel {report.scenario}: {facts}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.perf",
        description="Run the seeded perf suite and emit BENCH.json.",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="scaled-down workloads (what CI runs)",
    )
    parser.add_argument(
        "--out", default="BENCH.json",
        help="where to write the results document (default: BENCH.json)",
    )
    parser.add_argument(
        "--scenario", action="append", default=None, metavar="NAME",
        help=f"run only this scenario (repeatable); one of {scenario_names()}",
    )
    parser.add_argument(
        "--baseline", default=None, metavar="PATH",
        help="gate events/s against this committed BENCH.json",
    )
    parser.add_argument(
        "--max-regression", type=float, default=0.20, metavar="FRACTION",
        help="allowed events/s drop vs the baseline (default: 0.20)",
    )
    parser.add_argument(
        "--update-baseline", action="store_true",
        help="also overwrite --baseline with this run's results",
    )
    parser.add_argument(
        "--best-of", type=int, default=1, metavar="N",
        help="timing passes per scenario, fastest wins (default: 1)",
    )
    args = parser.parse_args(argv)

    reports = run_suite(
        quick=args.quick, only=args.scenario, best_of=args.best_of
    )
    print_summary(reports)

    mode = "quick" if args.quick else "full"
    write_bench_json(args.out, reports, mode=mode)
    print(f"\nwrote {args.out} ({mode} mode, schema v1)")

    if args.update_baseline:
        if args.baseline is None:
            print("--update-baseline requires --baseline", file=sys.stderr)
            return 2
        write_bench_json(args.baseline, reports, mode=mode)
        print(f"updated baseline {args.baseline}")
        return 0

    if args.baseline is not None:
        try:
            baseline = load_bench_json(args.baseline)
        except (OSError, ValueError) as error:
            print(f"cannot load baseline: {error}", file=sys.stderr)
            return 2
        current = {report.scenario: report for report in reports}
        failures = compare_to_baseline(
            current, baseline, max_regression=args.max_regression
        )
        if failures:
            print("\nPERF REGRESSION:", file=sys.stderr)
            for failure in failures:
                print(f"  - {failure}", file=sys.stderr)
            return 1
        print(
            f"no regression vs {args.baseline} "
            f"(allowance {args.max_regression:.0%})"
        )
    return 0
