"""The whole suite: every workload, one process each, one results document.

Each workload is measured by the same command the benchmark contract
drives (``python -m vrbench --workload W --trace 0|1``) in a process of its
own, so ``peak_rss_mb`` and ``setup_s`` are that workload's alone.  The
results document -- end-to-end, per-layer, micros, cross-config ratios,
digests and the host it ran on -- is what ``results/BENCH_pr<N>.json``
records for the trajectory.
"""

from __future__ import annotations

import json
import os
import pathlib
import platform
import re
import subprocess
import sys
from typing import Dict, Optional

from vrbench import RESULTS, ROOT, spec

#: end-to-end metrics that are host time (noisy; compared within their
#: bound).  Every other end-to-end metric is simulated time: exact.
HOST_TIME_E2E = ("txn_per_wall_s", "peak_rss_mb", "setup_s")
#: per-layer metrics that are host time; every other one is an exact count.
HOST_TIME_LAYER = (
    "sim.wall_us_per_event", "tracing_overhead_x", "recorder.hook_share",
    "recorder.calibration_spread",
)


#: "a self share is good to a few points": two runs of the same code may
#: differ by this much of the attributed time on any layer, no more
SHARE_TOLERANCE = 0.05


def is_host_time(name: str) -> bool:
    return (
        name in HOST_TIME_E2E
        or name in HOST_TIME_LAYER
        or name.endswith(".self_share")
    )


def _child(workload: str, trace: int, extra=()) -> dict:
    """Run one workload in its own process; parse its result and detail."""
    command = [
        sys.executable, "-m", "vrbench", "--workload", workload,
        "--trace", str(trace), *extra,
    ]
    done = subprocess.run(
        command, cwd=ROOT.parent, stdout=subprocess.PIPE, text=True
    )
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(command)} exited {done.returncode}")
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    detail = next(
        json.loads(line[len("detail "):])
        for line in lines if line.startswith("detail ")
    )
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload}: incorrect or failed operations: {result}")
    return {"metrics": result["metrics"], "detail": detail}


def _commit() -> str:
    done = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT.parent, text=True,
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
    )
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def run_suite(
    quick: bool = False, check: bool = False, seed: Optional[int] = None
) -> dict:
    benchmark = spec()
    seeded = [] if seed is None else ["--seed", str(seed)]
    extra = seeded + (["--quick"] if quick else []) + (["--check"] if check else [])
    workloads: Dict[str, dict] = {}
    for entry in benchmark["workloads"]:
        name = entry["name"]
        print(f"# {name}: {entry['why']}", flush=True)
        end_to_end = _child(name, 0, extra)
        row = {
            "end_to_end": end_to_end["metrics"],
            "detail": end_to_end["detail"],
        }
        if not quick:
            per_layer = _child(name, 1, seeded)
            for digest in ("ledger_digest", "state_digest"):
                if per_layer["detail"][digest] != end_to_end["detail"][digest]:
                    raise SystemExit(
                        f"{name}: {digest} differs between the timed and "
                        "the counting pass"
                    )
            row["per_layer"] = per_layer["metrics"]
            for key in ("hook_cost_ns", "cost_samples"):
                row["detail"][key] = per_layer["detail"][key]
        workloads[name] = row

    def rate(name: str) -> float:
        return workloads[name]["end_to_end"]["txn_per_wall_s"]["value"]

    document = {
        "schema": 1,
        "claim": None,
        "mode": "quick" if quick else "full",
        "host": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "platform": platform.platform(),
            "commit": _commit(),
        },
        "run_seconds": benchmark["run_seconds"],
        "workloads": workloads,
        # per-txn host rate of one config over the other
        "cross": {
            "trace.armed_over_off": rate("mixed_n3_ring") / rate("mixed_n3"),
            "core.buffer.batched_over_unbatched": rate("flood_batched")
            / rate("flood_unbatched"),
        },
    }
    if not quick:
        # The micros belong to no workload, so they run once, in this
        # process; imported here because nothing else in it needs the program.
        from vrbench import micros

        print("# micros", flush=True)
        document["micros"] = micros.run_micros()
    return document


def print_document(document: dict) -> None:
    for name, row in document["workloads"].items():
        for section in ("end_to_end", "per_layer"):
            for metric, cell in row.get(section, {}).items():
                print(f"{name} {metric} {cell['value']:.6g} {cell['unit']}")
    for metric, value in document["cross"].items():
        print(f"suite {metric} {value:.6g} ratio")
    for metric, value in document.get("micros", {}).items():
        print(f"suite {metric} {value:.6g} ns")


def _write(path, document: dict) -> None:
    """Indented JSON with each innermost object (a metric cell, a spread
    row) on one line, so a results file diffs by metric."""
    text = re.sub(
        r"\{[^{}\[\]]*\}",
        lambda cell: " ".join(cell.group().split()),
        json.dumps(document, indent=1),
    )
    pathlib.Path(path).write_text(text + "\n")


def run_and_print(
    quick: bool, check: bool, seed: Optional[int], out: Optional[str]
) -> int:
    document = run_suite(quick=quick, check=check, seed=seed)
    print_document(document)
    if out:
        _write(out, document)
    return 0


# -- --selftest --------------------------------------------------------------


def compare(first: dict, second: dict) -> Dict[str, list]:
    """Differences between two suite runs of the same code: exact metrics
    and digests must be identical, host-time end-to-end metrics within
    their bound, layer self-shares within ``SHARE_TOLERANCE``.  Returns
    ``{"failures": [...], "spreads": [...]}``."""
    bounds = {m["name"]: m["bound"] for m in spec()["end_to_end"]}
    failures, spreads = [], []
    for name, row in first["workloads"].items():
        other = second["workloads"][name]
        for digest in ("ledger_digest", "state_digest"):
            if row["detail"][digest] != other["detail"][digest]:
                failures.append(f"{name}: {digest} differs")
        for section in ("end_to_end", "per_layer"):
            for metric, cell in row.get(section, {}).items():
                a, b = cell["value"], other[section][metric]["value"]
                if not is_host_time(metric):
                    if a != b:
                        failures.append(f"{name} {metric}: exact {a} != {b}")
                    continue
                spread = _record_spread(spreads, name, metric, a, b)
                if metric in bounds and spread >= bounds[metric]:
                    failures.append(
                        f"{name} {metric}: {a:.6g} vs {b:.6g} differ by "
                        f"{spread:.1%} (bound {bounds[metric]:.0%})"
                    )
                if metric.endswith(".self_share") and abs(a - b) > SHARE_TOLERANCE:
                    failures.append(
                        f"{name} {metric}: {a:.4f} vs {b:.4f} differ by more "
                        f"than {SHARE_TOLERANCE} of the attributed time"
                    )
    for section in ("cross", "micros"):  # host time, no bound
        for metric, a in first[section].items():
            _record_spread(spreads, "suite", metric, a, second[section][metric])
    return {"failures": failures, "spreads": spreads}


def _record_spread(spreads: list, workload: str, metric: str, a, b) -> float:
    spread = abs(a - b) / max(abs(a), abs(b), 1e-12)
    spreads.append(
        {"workload": workload, "metric": metric, "first": a, "second": b,
         "spread": round(spread, 4)}
    )
    return spread


def selftest(out: Optional[str] = None) -> int:
    first = run_suite()
    second = run_suite()
    outcome = compare(first, second)
    RESULTS.mkdir(exist_ok=True)
    _write(
        RESULTS / "repeatability.json",
        {"passed": not outcome["failures"], **outcome,
         "first": first, "second": second},
    )
    if out:
        _write(out, first)
    for failure in outcome["failures"]:
        print(f"selftest: {failure}")
    print(f"selftest: {'FAILED' if outcome['failures'] else 'ok'}")
    return 1 if outcome["failures"] else 0
