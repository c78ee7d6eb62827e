"""BENCHMARK.json against the command: every declared name is printed."""

import json
import re
import subprocess
import sys

import pytest

import vrbench
from vrbench import bench
from vrbench.workloads import WORKLOADS

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_spec_is_well_formed():
    spec = vrbench.spec()
    assert sorted(spec) == sorted(
        ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"]
    )
    assert [w["name"] for w in spec["workloads"]] == [w.name for w in WORKLOADS]
    names = [w["name"] for w in spec["workloads"]]
    for section in ("end_to_end", "per_layer"):
        for metric in spec[section]:
            names.append(metric["name"])
            assert UNIT.match(metric["unit"]), metric
            assert metric["better"] in ("higher", "lower")
    for metric in spec["end_to_end"]:
        assert 0 < metric["bound"] <= 0.25
    for name in names:
        assert NAME.match(name), name
    assert len(names) == len(set(names))
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
    assert 2 <= len(spec["workloads"]) <= 8 and len(spec["per_layer"]) <= 128
    for workload in spec["workloads"]:
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]


def _run(trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, "-m", "vrbench", "--workload", "sharded_2pc",
         "--seed", "3", "--seconds", "9", "--quick", "--trace", str(trace)],
        cwd=bench.ROOT.parent, stdout=subprocess.PIPE, text=True, check=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_command_prints_every_declared_metric(trace, section):
    result = _run(trace)
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in vrbench.spec()[section]}
    assert {n: c["unit"] for n, c in result["metrics"].items()} == declared
    if trace == 0:
        assert all(cell["value"] != 0 for cell in result["metrics"].values())
    else:
        shares = [
            cell["value"] for name, cell in result["metrics"].items()
            if name.endswith(".self_share")
        ]
        assert min(shares) >= 0.0 and abs(sum(shares) - 1.0) <= 0.05
        assert 0.0 < result["metrics"]["recorder.hook_share"]["value"] < 1.0
        assert result["metrics"]["tracing_overhead_x"]["value"] > 1.0
        assert result["metrics"]["shard.cross_shard_txns"]["value"] > 0


def test_full_size_passes_support_a_p99():
    for workload in WORKLOADS:
        assert bench.scaled_ops(workload, bench.FULL) >= bench.MIN_OPS


def _document(rate: float, share: float, p50: float) -> dict:
    cell = lambda value: {"value": value, "unit": "x"}  # noqa: E731
    return {
        "workloads": {
            "mixed_n3": {
                "detail": {"ledger_digest": "a", "state_digest": "b"},
                "end_to_end": {
                    "txn_per_wall_s": cell(rate), "commit_sim_p50": cell(p50)
                },
                "per_layer": {"sim.self_share": cell(share)},
            }
        },
        "cross": {"trace.armed_over_off": 0.5},
        "micros": {"sim.schedule_pop_ns": 1200.0},
    }


def test_selftest_compares_exactly_within_bounds_and_within_share_tolerance():
    from vrbench import suite

    same = suite.compare(_document(1000.0, 0.16, 10.0), _document(1100.0, 0.19, 10.0))
    assert same["failures"] == []
    assert {row["metric"] for row in same["spreads"]} == {
        "txn_per_wall_s", "sim.self_share", "trace.armed_over_off",
        "sim.schedule_pop_ns",
    }
    moved = suite.compare(_document(1000.0, 0.16, 10.0), _document(1500.0, 0.23, 10.1))
    assert len(moved["failures"]) == 3  # host time, a share, an exact metric
