"""One workload, one process: the two kinds of run the benchmark makes.

- :func:`run_end_to_end` (``--trace 0``): exactly ``PASSES`` timed passes
  on a fresh ``Runtime`` with the same seed, each of a fixed operation
  count, nothing of the benchmark's installed in the program, and before
  each of them set-up timed in a fresh process.  Host time is given in
  seconds of the reference host (``vrbench.hostspeed``), slice by slice
  the median over the passes; exact metrics and digests must be identical
  in all.
- :func:`run_per_layer` (``--trace 1``): one counting pass (timed, with
  only the buffer registry installed) and one traced pass at a quarter of
  the operations under the span recorder, which samples its own cost
  as the pass goes.
"""

from __future__ import annotations

import json
import resource
import statistics
import subprocess
import sys
import time
from typing import Dict, Optional

from repro import TraceConfig

from vrbench import RESULTS, ROOT, hostspeed, measure, recorder, spec
from vrbench.workloads import BY_NAME, Workload

PASSES = 3
#: the p99 rule: at least this many operations in a full-size pass
MIN_OPS = 100 * measure.MIN_TAIL_SAMPLES

#: share of a workload's operation count that a run makes
FULL, CHECK, QUICK = 1.0, 0.1, 0.05


def scaled_ops(workload: Workload, scale: float) -> int:
    n_ops = max(40, int(workload.ops * scale))
    if scale == FULL and n_ops < MIN_OPS:
        raise measure.CheckFailed(
            f"{workload.name}: {n_ops} operations cannot support a p99 "
            f"(need {MIN_OPS})"
        )
    return n_ops


def _with_units(values: Dict[str, float], section: str) -> Dict[str, dict]:
    """Exactly the metrics ``BENCHMARK.json`` declares for *section*."""
    return {
        metric["name"]: {
            "value": values[metric["name"]], "unit": metric["unit"]
        }
        for metric in spec()[section]
    }


# -- set-up ------------------------------------------------------------------


def setup_only(workload: Workload, seed: int, quick: bool, meter) -> None:
    """What a set-up probe process does after its imports: build the
    system and resolve the warm-up, i.e. everything before the first
    timed operation."""
    measure.build_and_warm(
        workload, seed, scaled_ops(workload, QUICK if quick else FULL), meter=meter
    )


def probe_setup(workload: Workload, seed: int, quick: bool) -> float:
    """Set-up time as a user pays it: a fresh interpreter from process
    start, through imports, to the end of the warm-up; in seconds of the
    reference host.  The probe times its own steps (importing the program,
    the build, the warm-up in slices) against the reference loop; what it
    cannot see of itself, the interpreter starting and ending, is scaled by
    the host's speed here just before and just after."""
    command = [
        sys.executable, "-m", "vrbench", "--workload", workload.name,
        "--seed", str(seed), "--setup-only", *(["--quick"] if quick else []),
    ]
    slow_before = hostspeed.slowdown()
    started = time.perf_counter_ns()
    done = subprocess.run(
        command, check=True, cwd=ROOT.parent, stdout=subprocess.PIPE, text=True
    )
    elapsed_ns = time.perf_counter_ns() - started
    slow = (slow_before + hostspeed.slowdown()) / 2.0
    inside = json.loads(done.stdout.strip().splitlines()[-1])
    return ((elapsed_ns - inside["wall_ns"]) / slow + inside["ref_ns"]) / 1e9


# -- --trace 0 ---------------------------------------------------------------


def run_end_to_end(workload: Workload, seed: int, quick: bool = False) -> dict:
    n_ops = scaled_ops(workload, QUICK if quick else FULL)
    # One set-up probe before each timed pass, not all three together: the
    # host's speed moves in phases of seconds, and probes seconds apart
    # sample different ones.  (--quick has 30 s for the suite: one probe.)
    probes, passes = [], []
    for _ in range(PASSES):
        if not (quick and probes):
            probes.append(probe_setup(workload, seed, quick))
        passes.append(measure.run_pass(workload, seed, n_ops))
    measure.assert_passes_agree(workload, passes)
    first = passes[0]
    values = dict(first["exact"])
    ref_wall_s = hostspeed.slicewise_wall_s([p["slice_ref_ns"] for p in passes])
    values["txn_per_wall_s"] = first["succeeded"] / ref_wall_s
    values["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    )
    values["setup_s"] = statistics.median(probes)
    return {
        "correct": True,
        "attempted": first["n_ops"] * PASSES,
        "failed": sum(p["failed"] for p in passes),
        "metrics": _with_units(values, "end_to_end"),
        "detail": {
            "seed": seed,
            "ops_per_pass": n_ops,
            "passes": PASSES,
            "pass_wall_s": [round(p["wall_s"], 4) for p in passes],
            "ref_wall_s": round(ref_wall_s, 4),
            "setup_probe_s": [round(probe, 4) for probe in probes],
            **first["digests"],
        },
    }


# -- --trace 1 ---------------------------------------------------------------


def _counting_pass(workload: Workload, seed: int, n_ops: int) -> dict:
    buffers, restore = recorder.buffer_registry()
    try:
        return measure.run_pass(workload, seed, n_ops, buffers=buffers)
    finally:
        restore()


def run_per_layer(workload: Workload, seed: int, quick: bool = False) -> dict:
    n_ops = scaled_ops(workload, QUICK if quick else FULL)
    counting = _counting_pass(workload, seed, n_ops)
    rec = recorder.Recorder()
    traced = measure.run_pass(workload, seed, max(40, n_ops // 4), recorder=rec)
    cost = rec.hook_cost()
    layers = rec.layer_table(cost)
    # A layer made of small calls is what is left of a large raw time once a
    # large hook cost is taken off; less than nothing left means the cost
    # is wrong for this pass, and every share with it.
    negative = sorted(
        layer for layer, entry in layers.items() if entry["self_ns"] < 0
    )
    if negative:
        raise measure.CheckFailed(
            f"{workload.name}: hook cost {cost.as_dict()} leaves negative "
            f"self time in {negative}"
        )
    attributed = sum(entry["self_ns"] for entry in layers.values())

    values = dict(counting["exact"])
    values["sim.wall_us_per_event"] = (
        sum(counting["slice_ref_ns"]) / 1e3 / counting["exact"]["sim.events"]
    )
    for layer, entry in layers.items():
        values[f"{layer}.self_share"] = round(entry["self_ns"] / attributed, 4)
    values["tracing_overhead_x"] = (
        (traced["wall_s"] / traced["succeeded"])
        / (counting["wall_s"] / counting["succeeded"])
    )
    values["recorder.hook_share"] = 1.0 - attributed / rec.wall_ns
    values["recorder.calibration_spread"] = rec.calibration_spread()
    values["net.messages.entries"] = rec.entries("net.messages")
    values["txn.locks.acquires"] = rec.calls_of("LockManager.acquire")
    values["txn.locks.waits"] = rec.lock_waits
    values["storage.writes"] = rec.calls_of("StableStore.write")

    recorder_detail = {
        "hook_cost_ns": cost.as_dict(),
        "cost_samples": len(rec.cost_samples),
    }
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / f"trace_{workload.name}.json").write_text(
        json.dumps(
            {
                "workload": workload.name,
                "seed": seed,
                "traced_ops": traced["succeeded"],
                "traced_wall_ns": rec.wall_ns,
                **recorder_detail,
                "layers": layers,
                "table": rec.aggregated(),
                "span_fields": ["id", "parent", "layer", "entry", "start_ns", "end_ns"],
                "spans_sample": rec.sample,
            },
            indent=1,
        )
        + "\n"
    )
    return {
        "correct": True,
        "attempted": counting["n_ops"] + traced["n_ops"],
        "failed": counting["failed"] + traced["failed"],
        "metrics": _with_units(values, "per_layer"),
        "detail": {
            "seed": seed,
            "ops_counted": n_ops,
            "ops_traced": traced["n_ops"],
            **recorder_detail,
            **counting["digests"],
        },
    }


# -- --check -----------------------------------------------------------------


def replay_with_monitors(workload: Workload, seed: int) -> None:
    """One pass at a tenth of the operations with every trace monitor armed
    (single primary, quorum intersection, commit quorum, phantom delivery,
    viewstamp monotonicity, stale lease); a violation raises."""
    measure.run_pass(
        workload, seed, scaled_ops(workload, CHECK),
        trace=TraceConfig(monitors="all"),
    )


def resolve(name: str) -> Workload:
    workload: Optional[Workload] = BY_NAME.get(name)
    if workload is None:
        raise SystemExit(f"unknown workload {name!r}; have {sorted(BY_NAME)}")
    return workload
